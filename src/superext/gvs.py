"""Exact linear algebra over Q and Z2-graded vector spaces.

Every scalar a caller passes in or reads out is a `fractions.Fraction`,
and the library contains no floating point; inside, elimination runs on
integers in one step, `_absorb`.  It is entered through two classes:
`IncrementalSpan` for a row span (its rank, membership and kernel) and
`LinearSystem` for the canonical solutions of A x = b and its kept rows.
Both select the leftmost pivot, so particular solutions, kernel bases and
echelon spans are canonical: identical inputs give bit-identical outputs.

A vector is a tuple of Fractions, and a sparse vector or row an
{index: rational} dict, whose values may be ints where only a row space
matters.  A sparse input may carry explicit zeros; every entry point drops
them.  A linear map stores, per domain basis element j, the nonzero
entries (i, a_ij) of its image: a_ij is the coefficient of codomain basis
element i.  Its dense row matrix is a view for output.  The flat form of a
map of one space keys entry (i, j) by i n + j, as `_commutator` returns it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

EVEN = 0
ODD = 1

Vector = tuple[Fraction, ...]


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


def _absorb(echelon: dict[int, dict[int, int]], row: dict, width: int | None = None) -> bool:
    """Add a sparse rational row to a fully reduced echelon basis; True if it is new.

    Fraction-free (Bareiss, Math. Comp. 22, 1968): `echelon` maps each
    pivot column to a primitive integer row, positive there and 0 in every
    other pivot column, whose RREF row is itself over its pivot entry.  The
    row, which is not modified, is cleared of denominators and reduced by
    `_cancel`; one pass suffices because of that invariant.  A nonzero
    remainder is made primitive, its leftmost column is cancelled from the
    other rows, each then divided by its content, and it joins the basis.
    With `width` given, columns from `width` on are carried along but never
    pivot: a remainder that lives only there is dropped.
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
    """A sparse rational row times the lcm of its denominators, zeros dropped, as a new dict."""
    if all(type(x) is int for x in row.values()):
        return {j: x for j, x in row.items() if x}
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
        # echelon vectors live on row indices; the tag of column j sits at nrows + j
        self.nrows, self.ncols, self._echelon = nrows, 0, {}
        for col in cols:
            self.add_column(col)

    def add_column(self, col: Sequence | dict[int, Fraction]) -> bool:
        """Append a column to A; True if it is kept, i.e. outside the span of those before it."""
        j, nrows = self.ncols, self.nrows
        if not isinstance(col, dict):
            col = vec(col)
            if len(col) != nrows:
                raise ValueError(f"column {j} has {len(col)} entries, not {nrows}")
            col = {i: x for i, x in enumerate(col) if x}
        elif col and (min(col) < 0 or max(col) >= nrows):
            raise ValueError(f"column {j} has a row index outside 0..{nrows - 1}")
        self.ncols += 1
        return _absorb(self._echelon, {**col, nrows + j: 1}, nrows)

    def kept_rows(self) -> list[tuple[int, dict[int, int], dict[int, int]]]:
        """The kept columns eliminated, in pivot order, as integer (p, r, t): r = sum_j t[j] A_j,
        and r over r[p] is a row of the RREF of the span of A's columns."""
        n, echelon = self.nrows, self._echelon
        return [(p, {i: x for i, x in echelon[p].items() if i < n},
                 {i - n: x for i, x in echelon[p].items() if i >= n}) for p in sorted(echelon)]

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


def sparse_transpose(rows: Iterable[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """The columns of a matrix of `ncols` columns given as sparse rows, as sparse dicts."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


class IncrementalSpan:
    """Row span grown one vector at a time, held in `_absorb`'s fully reduced form.

    A vector is a dense sequence or a sparse {index: rational} dict, fed to
    `_absorb`.  Any exact elimination gives the same RREF: it depends only
    on the row space (its nonzero rows are the unique basis of that space
    with a leading 1 in each pivot column and zeros in the other pivot
    columns, and the pivot columns are the leftmost-nonzero positions), so
    the order of row operations cannot change a returned byte.
    """

    def __init__(self, rows: Iterable[Sequence | dict[int, Fraction]] = ()):  # noqa: B008
        self._echelon: dict[int, dict[int, int]] = {}
        for r in rows:
            self.add(r)

    def add(self, v: Sequence | dict[int, Fraction]) -> bool:
        """Add a vector; True if it enlarged the span."""
        row = v if isinstance(v, dict) else {j: x for j, x in enumerate(vec(v)) if x}
        return _absorb(self._echelon, row)

    def kernel(self, ncols: int) -> list[dict[int, Fraction]]:
        """The canonical kernel basis of the rows added, as a matrix of `ncols` columns.

        For each free column f of the RREF, the {column: nonzero Fraction}
        vector with 1 at f and minus the reduced rows' entries in column f
        at their pivots.
        """
        echelon = self._echelon
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


class GradedLinearMap(Record):
    """A rational linear map between super spaces, homogeneous of a fixed degree.

    `columns[j]` lists the nonzero (i, a_ij) of the image of domain basis j,
    Fractions in ascending row order; a_ij is 0 unless
    parity(codomain_i) = parity(domain_j) + degree (mod 2).  The record is
    canonical, so equal maps are equal records: `_map` and `linear_map`
    write it from columns or rows, and the constructor refuses anything
    else.  `matrix` is the dense view, for output.
    """

    domain: SuperVectorSpace
    codomain: SuperVectorSpace
    degree: int
    columns: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if type(self.degree) is not int or self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")
        cols, m, bad = self.columns, self.codomain.dim, []
        if type(cols) is not tuple or len(cols) != self.domain.dim:
            raise ValueError("column count != domain dimension")
        for j, (col, p) in enumerate(zip(cols, self.domain.parities)):
            want, last = (p + self.degree) % 2, -1  # the codomain parity allowed
            for e in col if type(col) is tuple else (None,):  # a column not a tuple fails too
                if not (type(e) is tuple and len(e) == 2 and type(e[0]) is int
                        and last < e[0] < m and type(e[1]) is Fraction and e[1]):
                    raise ValueError(f"column {j} must list its nonzero (row, Fraction) "
                                     "entries in ascending row order")
                last = e[0]
                if self.codomain.parities[last] != want:
                    bad.append((last, j))
        if bad:
            i, j = min(bad)
            raise ValueError(f"the entry from {self.domain.names[j]} to {self.codomain.names[i]} "
                             f"violates homogeneity of degree {self.degree}")

    @staticmethod
    def zero(domain, codomain, degree=0) -> "GradedLinearMap":
        return GradedLinearMap(domain, codomain, degree, ((),) * domain.dim)

    @staticmethod
    def identity_map(space) -> "GradedLinearMap":
        return _map(space, space, 0, [{j: 1} for j in range(space.dim)])

    @cached_property
    def matrix(self) -> tuple[Vector, ...]:
        """The dense rows of Fractions, a view of `columns` built on first read."""
        cols = [self.column(j) for j in range(self.domain.dim)]
        return tuple(tuple(c[i] for c in cols) for i in range(self.codomain.dim))

    def apply(self, v: Sequence) -> Vector:
        """The image of a coordinate vector of length dim domain."""
        v = vec(v)
        if len(v) != self.domain.dim:
            raise ValueError(f"vector length {len(v)} != domain dimension {self.domain.dim}")
        out = [Fraction(0)] * self.codomain.dim
        for x, col in zip(v, self.columns):
            if x:
                for i, a in col:
                    out[i] += a * x
        return tuple(out)

    def column(self, j: int) -> Vector:
        return dense_vec(dict(self.columns[j]), self.codomain.dim)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other: column j is the sum of other's a_kj times self's column k."""
        if other.codomain != self.domain:
            raise ValueError("composition: domains do not match")
        cols = []
        for col in other.columns:
            acc: dict[int, Fraction] = {}
            for k, y in col:
                for i, x in self.columns[k]:
                    acc[i] = acc.get(i, 0) + x * y
            cols.append(acc)
        return _map(other.domain, self.codomain, (self.degree + other.degree) % 2, cols)

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if (self.domain, self.codomain, self.degree) != (other.domain, other.codomain, other.degree):
            raise ValueError("maps not addable")
        pairs = [(dict(a), dict(b)) for a, b in zip(self.columns, other.columns)]
        return _map(self.domain, self.codomain, self.degree,
                    [{i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()} for a, b in pairs])

    def scale(self, c) -> "GradedLinearMap":
        c = scalar(c)
        return _map(self.domain, self.codomain, self.degree,
                    [{i: c * a for i, a in col} for col in self.columns])

    def is_zero(self) -> bool:
        return not any(self.columns)

    def _flat_nonzeros(self) -> dict[int, Fraction]:
        """The nonzero entries keyed by their row-major flat index i n + j, n = dim domain."""
        n = self.domain.dim
        return {i * n + j: a for j, col in enumerate(self.columns) for i, a in col}


def _map(domain, codomain, degree, cols) -> GradedLinearMap:
    """The map whose column j is cols[j], a {row: rational} dict or a dense sequence.

    Each entry passes `scalar` and zeros are dropped, so the record is canonical.
    """
    entries = (col.items() if isinstance(col, dict) else enumerate(col) for col in cols)
    return GradedLinearMap(domain, codomain, degree, tuple(
        tuple(sorted((i, a) for i, a in ((i, scalar(a)) for i, a in col) if a)) for col in entries))


def linear_map(domain: SuperVectorSpace, codomain: SuperVectorSpace, degree: int,
               matrix: Sequence[Sequence]) -> GradedLinearMap:
    """The map with the dense row matrix `matrix`: entry (i, j) is the coefficient of
    codomain basis i in the image of domain basis j."""
    if len(matrix) != codomain.dim or any(len(row) != domain.dim for row in matrix):
        raise ValueError(f"the matrix is not {codomain.dim} x {domain.dim}")
    return _map(domain, codomain, degree, [[row[j] for row in matrix] for j in range(domain.dim)])


def _commutator(a: GradedLinearMap, b: GradedLinearMap) -> dict[int, Fraction]:
    """[a, b] = a b - (-1)^{deg a deg b} b a as {i n + j: nonzero}, for maps of one space.

    Each map is scaled to ints by the lcm of its denominators, da and db.  Column j
    of a b sums b's entries (k, j) times a's column k, and b a likewise, into one
    int dict; each nonzero sum becomes one Fraction over da db.
    """
    n = a.domain.dim
    da = lcm(*(x.denominator for col in a.columns for _i, x in col))
    db = lcm(*(x.denominator for col in b.columns for _i, x in col))
    a_cols = [[(i, x.numerator * (da // x.denominator)) for i, x in col] for col in a.columns]
    b_cols = [[(i, x.numerator * (db // x.denominator)) for i, x in col] for col in b.columns]
    sign = 1 if a.degree * b.degree else -1  # b a enters with sign -(-1)^{deg a deg b}
    out: dict[int, int] = {}
    for j, (a_col, b_col) in enumerate(zip(a_cols, b_cols)):
        for k, y in b_col:
            for i, x in a_cols[k]:
                out[i * n + j] = out.get(i * n + j, 0) + x * y
        for k, x in a_col:
            sx = sign * x
            for i, y in b_cols[k]:
                out[i * n + j] = out.get(i * n + j, 0) + sx * y
    return {t: Fraction(x, da * db) for t, x in out.items() if x}
