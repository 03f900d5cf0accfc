"""Exact linear algebra over Q and Z2-graded vector spaces.

Every scalar a caller passes in or reads out is a `fractions.Fraction`,
and the library contains no floating point; inside, elimination runs on
integers in one step, `_absorb`.  It has one entry point per job:
`IncrementalSpan` for a row span and its RREF, `LinearSystem` for the
canonical solutions of A x = b, and `sparse_kernel_basis` for a kernel.
All select the leftmost pivot, so particular solutions, kernel bases and
echelon spans are canonical: identical inputs give bit-identical outputs.

A vector is a tuple of Fractions, a matrix a tuple of row tuples, and a
sparse vector or row an {index: rational} dict, whose values may be ints
where only a row space matters.  A sparse input may carry explicit zeros;
every entry point drops them.  Entry (i, j) is the coefficient
of codomain basis element i in the image of domain basis j; the sparse
form of a map of one space keys entry (i, j) by i n + j, as `_commutator`
returns it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

EVEN = 0
ODD = 1

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


# "p" or "p/q": checked before Fraction, which would build 10**5000 from "1e5000"
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def scalar(x) -> Fraction:
    """Coerce ints, Fractions and 'p' or 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not an exact rational 'p' or 'p/q': {x!r}")
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries: Iterable) -> Vector:
    return tuple(scalar(x) for x in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vec(v: Vector) -> bool:
    return all(a == 0 for a in v)


def dense_vec(v: dict[int, Fraction], n: int) -> Vector:
    """The length-n vector of a sparse {index: Fraction} one."""
    out = [Fraction(0)] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple(zero_vec(ncols) for _ in range(nrows))


def identity(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def from_columns(cols: Sequence[Sequence], nrows: int) -> Matrix:
    """The matrix whose j-th column is cols[j]; `nrows` fixes the shape when cols is empty."""
    return tuple(tuple(c[i] for c in cols) for i in range(nrows))


def mat_vec(A: Matrix, v: Vector) -> Vector:
    """A v, summing over the nonzeros of v; every entry is a Fraction."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    zero = Fraction(0)
    out = []
    for row in A:
        acc = zero
        for j, x in nz:
            a = row[j]
            if a:
                acc += a * x
        out.append(acc)
    return tuple(out)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B, summing over nonzero pairs only; every entry is a Fraction."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("dimension mismatch in matrix product")
    ncols = len(B[0]) if B else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in B]
    zero = Fraction(0)
    out = []
    for row in A:
        acc = [zero] * ncols
        for a, b_row in zip(row, b_rows):
            if a:
                for j, y in b_row:
                    acc[j] += a * y
        out.append(tuple(acc))
    return tuple(out)


def _absorb(echelon: dict[int, dict[int, int]], row: dict, width: int | None = None) -> bool:
    """Add a sparse rational row to a fully reduced echelon basis; True if it is new.

    Fraction-free (Bareiss, Math. Comp. 22, 1968): `echelon` maps each
    pivot column to a primitive integer row, positive there and 0 in every
    other pivot column, whose RREF row is itself over its pivot entry
    (`_rational`).  The row, which is not modified, is cleared of
    denominators and reduced by `_cancel`; one pass suffices because of
    that invariant.  A nonzero remainder is made primitive, its leftmost
    column is cancelled from the other rows, each then divided by its
    content, and it joins the basis.  With `width` given, columns from
    `width` on are carried along but never pivot: a remainder that lives
    only there is dropped.
    """
    row = _integral(row)
    for c in [c for c in row if c in echelon]:
        _cancel(row, c, echelon[c])
    if not row:
        return False
    p = min(row)
    if width is not None and p >= width:
        return False
    g = gcd(*row.values()) if row[p] > 0 else -gcd(*row.values())
    if g != 1:
        row = {j: x // g for j, x in row.items()}
    for other in echelon.values():
        if p in other:
            _cancel(other, p, row)
            g = gcd(*other.values())
            if g != 1:
                for j in other:
                    other[j] //= g
    echelon[p] = row
    return True


def _integral(row: dict) -> dict[int, int]:
    """A sparse rational row times the lcm of its denominators, its zero entries dropped."""
    d = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}


def _cancel(row: dict[int, int], c: int, e: dict[int, int]) -> None:
    """row := (b/g) row - (a/g) e in place, a = row[c], b = e[c] > 0, g = gcd(a, b): clears c."""
    a, b = row[c], e[c]
    g = gcd(a, b)
    if g != b:
        for j in row:
            row[j] *= b // g
    f = -(a // g)
    for j, y in e.items():
        x = row.get(j, 0) + f * y
        if x:
            row[j] = x
        else:
            del row[j]


def _rational(row: dict[int, int], p: int) -> dict[int, Fraction]:
    """The RREF row of an echelon row with pivot p: its entries over row[p], as Fractions."""
    d = row[p]
    return {j: Fraction(x, d) for j, x in row.items()}


class LinearSystem:
    """The matrix A with columns `cols`, eliminated once, for solving A x = b with many b.

    A column, like b, is a dense sequence of `nrows` entries or a sparse
    {row: rational} dict.  `solve(b)` reduces all of b and
    returns exactly what an elimination of the augmented matrix [A | b]
    would give: the kept columns are the pivot columns of the RREF of A,
    i.e. the columns outside the span of the columns before them, b is
    written in them uniquely, and every free coordinate is 0.  It returns
    None when b is not in the image.

    Construction runs `_absorb` on the columns, each tagged with its
    index, so every echelon vector also records which combination of kept
    columns it is; a column that reduces to its tags alone is dependent
    and is skipped.  `solve` too runs on integers, up to the Fractions it
    returns.
    """

    def __init__(self, cols: Iterable[Sequence | dict[int, Fraction]], nrows: int):
        cols = list(cols)
        self.nrows, self.ncols = nrows, len(cols)
        # echelon vectors live on row indices; the tag of column j sits at nrows + j
        self._echelon: dict[int, dict[int, int]] = {}
        for j, col in enumerate(cols):
            if not isinstance(col, dict):
                col = vec(col)
                if len(col) != nrows:
                    raise ValueError(f"column {j} has {len(col)} entries, not {nrows}")
                col = {i: x for i, x in enumerate(col) if x}
            elif col and (min(col) < 0 or max(col) >= nrows):
                raise ValueError(f"column {j} has a row index outside 0..{nrows - 1}")
            _absorb(self._echelon, {**col, nrows + j: 1}, nrows)

    def solve(self, rhs: Sequence | dict[int, Fraction]) -> Vector | None:
        """The canonical solution of A x = rhs, dense or sparse; None if rhs is not in the image."""
        if isinstance(rhs, dict):
            if any(not 0 <= i < self.nrows for i in rhs):
                raise ValueError(f"rhs has a row index outside 0..{self.nrows - 1}")
            b = rhs
        else:
            b = vec(rhs)
            if len(b) != self.nrows:
                raise ValueError(f"rhs length {len(b)} != row count {self.nrows}")
            b = {i: x for i, x in enumerate(b) if x}
        # b's own coefficient rides in column -1, which the scaling in
        # `_cancel` multiplies and no echelon vector touches
        r = _integral({-1: 1, **b})
        for p, e in self._echelon.items():
            if p in r:
                _cancel(r, p, e)
        s = r.pop(-1)
        if any(i < self.nrows for i in r):
            return None
        return dense_vec({t - self.nrows: Fraction(-x, s) for t, x in r.items()}, self.ncols)


def sparse_kernel_basis(rows: Iterable[dict[int, Fraction]],
                        ncols: int) -> list[dict[int, Fraction]]:
    """Exact basis of the kernel of a matrix given as sparse rows, as sparse vectors.

    Each row is a {column: rational} dict, fed to `_absorb` one at
    a time, as in `IncrementalSpan`.  The echelon rows over their pivot
    entries are the nonzero rows of the RREF, so the basis is canonical:
    for each free column f, the vector with 1 at f, minus the reduced
    rows' entries in column f at their pivots, and 0 elsewhere.  Each
    vector is a {column: nonzero Fraction} dict.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        _absorb(echelon, row)
    # minus the reduced rows' entries outside their pivots, grouped by column
    by_col: dict[int, list[tuple[int, Fraction]]] = {}
    for p, row in echelon.items():
        d = row[p]
        for j, x in row.items():
            if j != p:
                by_col.setdefault(j, []).append((p, Fraction(-x, d)))
    met = (*echelon, *by_col)  # every column that some row meets, as the echelon spans them
    if met and (min(met) < 0 or max(met) >= ncols):
        raise ValueError(f"a row has a column index outside 0..{ncols - 1}")
    one = Fraction(1)
    basis = []
    for f in range(ncols):
        if f not in echelon:
            v = {f: one}
            v.update(by_col.get(f, ()))
            basis.append(v)
    return basis


def sparse_transpose(rows: Iterable[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """The columns of a matrix of `ncols` columns given as sparse rows, as sparse dicts."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


class IncrementalSpan:
    """Row span grown one vector at a time; `rows()` is its canonical RREF.

    A vector is a dense sequence or a sparse {index: rational} dict,
    fed to `_absorb`.  Any exact elimination gives the same `rows()`: the
    RREF of a matrix depends only on its row space (its nonzero rows are
    the unique basis of that space with a leading 1 in each pivot column
    and zeros in the other pivot columns, and the pivot columns are the
    leftmost-nonzero positions), so the order of row operations cannot
    change a returned byte.
    """

    def __init__(self, rows: Iterable[Sequence | dict[int, Fraction]] = ()):  # noqa: B008
        self._echelon: dict[int, dict[int, int]] = {}
        for r in rows:
            self.add(r)

    def add(self, v: Sequence | dict[int, Fraction]) -> bool:
        """Add a vector; True if it enlarged the span."""
        row = v if isinstance(v, dict) else {j: x for j, x in enumerate(vec(v)) if x}
        return _absorb(self._echelon, row)

    def rows(self) -> list[dict[int, Fraction]]:
        """The nonzero rows of the RREF in pivot order, as {index: Fraction} dicts."""
        return [_rational(self._echelon[p], p) for p in sorted(self._echelon)]

    @property
    def rank(self) -> int:
        return len(self._echelon)


class Record:
    """Base of the frozen value records, which it builds with no code generated at import.

    The fields are the subclass's own annotations, in order; a class-level
    value is a default.  `__init__` takes them by position or keyword, then
    calls `__post_init__` if there is one.  Equality and hash go by the field
    tuple, never by `__dict__`, which also holds `cached_property` values.
    """

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        key = operator.attrgetter(*names)
        cls._key = staticmethod(key if len(names) > 1 else lambda obj: (key(obj),))
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kw):
        cls, names = type(self), self._fields
        if len(args) < len(names):
            try:
                args += tuple(kw.pop(n) if n in kw else cls._defaults[n] for n in names[len(args):])
            except KeyError as ex:
                raise TypeError(f"{cls.__name__}() missing field {ex.args[0]!r}") from None
        if kw or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}: got {len(args)} "
                            f"values and the keywords {sorted(kw)}")
        # not through __dict__: an instance whose dict is materialised reads its fields slower
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if cls._post_init is not None:
            cls._post_init(self)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SuperVectorSpace(Record):
    """An ordered basis with Z2 parities."""

    names: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.parities):
            raise ValueError("names and parities differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        if any(type(p) is not int or p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def dim_even(self) -> int:
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def dim_odd(self) -> int:
        return sum(1 for p in self.parities if p == ODD)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def vector_parity(self, v: Vector) -> int | None:
        """Parity of a homogeneous vector; None if mixed.  Zero counts as even."""
        ps = {self.parities[i] for i, a in enumerate(v) if a != 0}
        if not ps:
            return EVEN
        if len(ps) > 1:
            return None
        return ps.pop()

    def __str__(self):
        return f"({self.dim_even}|{self.dim_odd})[{', '.join(self.names)}]"


class GradedLinearMap(Record):
    """A rational matrix between super spaces, homogeneous of a fixed degree.

    Entry (i, j) is the coefficient of codomain basis i in the image of
    domain basis j; entries are forced to 0 unless
    parity(codomain_i) = parity(domain_j) + degree (mod 2).
    """

    domain: SuperVectorSpace
    codomain: SuperVectorSpace
    degree: int
    matrix: Matrix

    def __post_init__(self):
        if type(self.degree) is not int or self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        if len(self.matrix) != self.codomain.dim:
            raise ValueError("row count != codomain dimension")
        for row in self.matrix:
            if len(row) != self.domain.dim:
                raise ValueError("column count != domain dimension")
        dpar = self.domain.parities
        for i, row in enumerate(self.matrix):
            want = (self.codomain.parities[i] + self.degree) % 2  # the domain parity allowed
            for j, a in enumerate(row):
                if a and dpar[j] != want:
                    raise ValueError(
                        f"entry ({i},{j}) violates homogeneity of degree {self.degree}"
                    )

    @staticmethod
    def zero(domain, codomain, degree=0) -> "GradedLinearMap":
        return GradedLinearMap(domain, codomain, degree, zeros(codomain.dim, domain.dim))

    @staticmethod
    def identity_map(space) -> "GradedLinearMap":
        return GradedLinearMap(space, space, 0, identity(space.dim))

    def apply(self, v: Sequence) -> Vector:
        return mat_vec(self.matrix, vec(v))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition: domains do not match")
        return GradedLinearMap(
            other.domain, self.codomain, (self.degree + other.degree) % 2,
            mat_mul(self.matrix, other.matrix),
        )

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if (self.domain, self.codomain, self.degree) != (other.domain, other.codomain, other.degree):
            raise ValueError("maps not addable")
        return GradedLinearMap(self.domain, self.codomain, self.degree, tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.matrix, other.matrix)))

    def scale(self, c) -> "GradedLinearMap":
        c = scalar(c)
        return GradedLinearMap(self.domain, self.codomain, self.degree,
                               tuple(vec_scale(c, r) for r in self.matrix))

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.matrix)

    def flat(self) -> Vector:
        """Row-major flattening; the coordinate convention for spaces of maps."""
        return tuple(a for row in self.matrix for a in row)


def _square(flat: dict, n: int) -> Matrix:
    """The n x n matrix of a sparse row-major {i n + j: entry} dict, Fraction(0) elsewhere."""
    v = dense_vec(flat, n * n)
    return tuple(v[i * n:i * n + n] for i in range(n))


def _flat_nonzeros(m: GradedLinearMap) -> dict[int, Fraction]:
    """The nonzero entries of a map, keyed by their row-major flat index."""
    n = m.domain.dim
    return {i * n + j: x for i, row in enumerate(m.matrix) for j, x in enumerate(row) if x}


def _commutator(a: GradedLinearMap, b: GradedLinearMap) -> dict[int, Fraction]:
    """[a, b] = a b - (-1)^{deg a deg b} b a as {i n + j: nonzero}, for maps of one space.

    Both products are summed into one dict over the nonzero entries of
    the two maps; no map and no dense row is built.
    """
    n = a.domain.dim
    a_nz = [[(k, x) for k, x in enumerate(row) if x] for row in a.matrix]
    b_nz = [[(k, y) for k, y in enumerate(row) if y] for row in b.matrix]
    sign = 1 if a.degree * b.degree else -1  # b a enters with sign -(-1)^{deg a deg b}
    out: dict[int, Fraction] = {}
    for i, (a_row, b_row) in enumerate(zip(a_nz, b_nz)):
        base = i * n
        for k, x in a_row:
            for j, y in b_nz[k]:
                out[base + j] = out.get(base + j, 0) + x * y
        for k, y in b_row:
            sy = sign * y
            for j, x in a_nz[k]:
                out[base + j] = out.get(base + j, 0) + sy * x
    return {t: x for t, x in out.items() if x}


def graded_commutator(a: GradedLinearMap, b: GradedLinearMap) -> GradedLinearMap:
    """[a, b] on a common space, entries Fractions: a dense view of `_commutator`."""
    if not a.domain == a.codomain == b.domain == b.codomain:
        raise ValueError("a graded commutator needs two maps of one space")
    flat = {t: Fraction(x) for t, x in _commutator(a, b).items()}
    return GradedLinearMap(a.domain, a.domain, (a.degree + b.degree) % 2, _square(flat, a.domain.dim))
