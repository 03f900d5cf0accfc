"""Graded-antisymmetric cochains and their calculus.

A cochain of arity p and weight y is a p-linear map g^p -> h that is
graded antisymmetric and shifts parity by y: the value on homogeneous
arguments of parities x_1..x_p lies in the parity (y + x_1 + ... + x_p)
component of h.

Sign conventions used throughout (and documented here once):

* Swapping two adjacent arguments of parities x, x' multiplies the value
  by -(-1)^{x x'}.  Consequently even-parity arguments never repeat in a
  nonzero value, while odd arguments may repeat (the cochain space is
  Lambda(g_0) (x) S(g_1) in each arity), so canonical storage keys are
  weakly increasing index tuples with no even repeats.
* For a permutation written as sigma = (sigma(0), ..., sigma(k-1)) in
  one-line notation (position i of the permuted tuple holds original
  entry sigma(i)), the acquired sign s(sigma, x) is the product of the
  adjacent-swap signs along any decomposition; it also equals
  sign(sigma) times the sign of the permutation induced on the odd
  entries.
* The differentials index arguments X_0..X_p from zero and use
      a_i(x)    = x_i (x_0 + ... + x_{i-1}) + i
      a_ij(x)   = a_i(x) + a_j(x) + x_i x_j
  i.e. the parity sum runs over all preceding arguments.  This is the
  unique reading under which the Leibniz rule and the square formula
  delta_alpha delta_alpha = [rho, .]_wedge hold; the property suite
  exercises both.
* The wedge of a scalar form psi (arity q) with Phi of weight y uses the
  extra factor (-1)^{y b_q}, b_q = number of odd arguments routed to
  psi; the bracket of Phi (arity p) with Psi of weight z uses
  (-1)^{z b_p} with b_p counting odd arguments routed to Phi.  Both are
  computed as shuffle sums, which agree with the 1/(q! p!) full
  symmetrization because every summand is invariant on shuffle cosets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, groupby
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .gvs import (
    EVEN,
    GradedLinearMap,
    Record,
    SuperVectorSpace,
    Vector,
    is_zero_vec,
    scalar,
    sparse_transpose,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .superlie import SuperLieAlgebra

TRIVIAL_LINE = SuperVectorSpace(("1",), (EVEN,))

def multigraded_sign(sigma: Sequence[int], parities: Sequence[int]) -> int:
    """Sign acquired by a tuple of homogeneous elements under a permutation.

    `sigma` is one-line notation (see module docstring); `parities` are
    the parities of the original, unpermuted tuple.
    """
    k = len(sigma)
    if len(parities) != k:
        raise ValueError("permutation and parity word differ in length")
    if any(p not in (0, 1) for p in parities):
        raise ValueError("parity word entries must be 0 or 1")
    if sorted(sigma) != list(range(k)):
        raise ValueError(f"not a permutation of 0..{k - 1}: {sigma!r}")
    return _sort_sign(list(sigma), parities)


def _sort_sign(work: list[int], parities: Sequence[int]) -> int:
    """Insertion-sort `work` in place; the product of the adjacent-swap signs."""
    sign = 1
    for i in range(1, len(work)):
        x = work[i]
        if work[i - 1] > x:  # x moves left past the greater entries of the sorted work[:i]
            p = bisect_right(work, x, 0, i)
            sign *= _passing_sign(parities, x, work[p:i])
            work[p + 1:i + 1] = work[p:i]
            work[p] = x
    return sign


def _passing_sign(parities: Sequence[int], x: int, passed: Sequence[int]) -> int:
    """The sign of moving entry x past the entries `passed`, which index into `parities`.

    Each adjacent swap of entries of parities x, x' contributes -(-1)^(x x').
    """
    odd = sum(parities[k] for k in passed) if parities[x] else 0
    return -1 if (len(passed) - odd) % 2 else 1


def compose_perms(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """(sigma o tau)(i) = sigma(tau(i))."""
    return tuple(sigma[tau[i]] for i in range(len(tau)))


def permute_word(sigma: Sequence[int], word: Sequence[int]) -> tuple[int, ...]:
    """The parity word of the permuted tuple: entry i is word[sigma(i)]."""
    return tuple(word[sigma[i]] for i in range(len(sigma)))


def canonical_tuples(space: SuperVectorSpace, arity: int) -> list[tuple[int, ...]]:
    """All canonical index tuples: weakly increasing, even entries distinct."""
    if arity < 0:
        raise ValueError("arity must be >= 0")
    evens = [i for i, p in enumerate(space.parities) if p == EVEN]
    odds = [i for i, p in enumerate(space.parities) if p != EVEN]
    # k distinct even entries merged with a multiset of odd ones, sorted lexicographically
    return sorted(tuple(sorted(e + o)) for k in range(arity + 1) for e in combinations(evens, k)
                  for o in combinations_with_replacement(odds, arity - k))


def sort_indices(space: SuperVectorSpace, indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical reordering of an index tuple and the acquired sign.

    Returns (sorted tuple, sign); the sign is 0 when an even index repeats
    (graded antisymmetry forces the value to vanish there).
    """
    work = list(indices)
    sign = _sort_sign(work, space.parities)
    for a, b in zip(work, work[1:]):
        if a == b and space.parities[a] == EVEN:
            return tuple(work), 0
    return tuple(work), sign


class Cochain(Record):
    """A graded-antisymmetric multilinear map stored on canonical tuples."""

    source: SuperVectorSpace
    target: SuperVectorSpace
    arity: int
    weight: int
    values: tuple[tuple[tuple[int, ...], Vector], ...]

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if type(self.weight) is not int or self.weight not in (0, 1):
            raise ValueError("weight must be 0 or 1")
        # normalize: drop zero values, sort tuples, exact-rational entries
        cleaned = tuple(
            (tuple(t), w) for t, v in sorted(self.values) if not is_zero_vec(w := vec(v))
        )
        object.__setattr__(self, "values", cleaned)
        seen = set()
        for tup, val in self.values:
            if len(tup) != self.arity:
                raise ValueError(f"tuple {tup} has wrong length")
            if tup in seen:
                raise ValueError(f"duplicate tuple {tup}")
            seen.add(tup)
            if any(i < 0 or i >= self.source.dim for i in tup):
                raise ValueError(f"tuple {tup} out of range")
            srt, sign = sort_indices(self.source, tup)
            if srt != tup or sign == 0:
                raise ValueError(f"tuple {tup} is not canonical")
            if len(val) != self.target.dim:
                raise ValueError("value has wrong length")
            want = (self.weight + sum(self.source.parities[i] for i in tup)) % 2
            for k, c in enumerate(val):
                if c != 0 and self.target.parities[k] != want:
                    raise ValueError(
                        f"value on ({','.join(self.source.names[i] for i in tup)}) has a "
                        f"parity-{self.target.parities[k]} component but must lie in parity {want}"
                    )

    @cached_property
    def _table(self) -> Mapping[tuple[int, ...], Vector]:
        return dict(self.values)

    def value(self, tup: tuple[int, ...]) -> Vector:
        return self._table.get(tup, zero_vec(self.target.dim))

    def is_zero(self) -> bool:
        return not self.values

    def evaluate(self, indices: Sequence[int]) -> Vector:
        """Value on an arbitrary tuple of basis indices (sorts and signs)."""
        if len(indices) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(indices)}")
        for i in indices:
            if i < 0 or i >= self.source.dim:
                raise IndexError(f"basis index {i} out of range")
        tup, sign = sort_indices(self.source, indices)
        if sign == 0:
            return zero_vec(self.target.dim)
        v = self.value(tup)
        return v if sign == 1 else vec_scale(Fraction(-1), v)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        table = dict(self.values)
        for tup, val in other.values:
            table[tup] = vec_add(table.get(tup, zero_vec(self.target.dim)), val)
        return make_cochain(self.source, self.target, self.arity, self.weight, table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, c) -> "Cochain":
        c = scalar(c)
        return make_cochain(
            self.source, self.target, self.arity, self.weight,
            {tup: vec_scale(c, val) for tup, val in self.values},
        )

    def _check_compatible(self, other: "Cochain"):
        if (self.source, self.target, self.arity, self.weight) != (
            other.source, other.target, other.arity, other.weight,
        ):
            raise ValueError("cochains live in different spaces")


def make_cochain(
    source: SuperVectorSpace,
    target: SuperVectorSpace,
    arity: int,
    weight: int,
    table: Mapping[tuple[int, ...], Sequence] | Iterable[tuple[tuple[int, ...], Sequence]] = (),
) -> Cochain:
    """Cochain from a {canonical tuple: value vector} table; the constructor drops zeros."""
    items = table.items() if isinstance(table, Mapping) else table
    return Cochain(source, target, arity, weight, tuple((tuple(t), v) for t, v in items))


def space_basis(
    source: SuperVectorSpace, target: SuperVectorSpace, arity: int, weight: int
) -> list[tuple[tuple[int, ...], int]]:
    """Coordinate basis of the cochain space: (canonical tuple, target index).

    Only target indices of the parity forced by homogeneity appear, so the
    list enumerates an actual basis; its order fixes all matrix layouts.
    """
    parity = source.parities.__getitem__
    slots = [[m for m, p in enumerate(target.parities) if p == want] for want in (0, 1)]
    return [(tup, m) for tup in canonical_tuples(source, arity)
            for m in slots[(weight + sum(map(parity, tup))) % 2]]


def cochain_coordinates(phi: Cochain, basis: Sequence[tuple[tuple[int, ...], int]]) -> Vector:
    return tuple(phi.value(tup)[m] for tup, m in basis)


def cochain_from_coordinates(
    source, target, arity, weight, basis: Sequence[tuple[tuple[int, ...], int]],
    coords: Sequence | Mapping[int, Fraction],
) -> Cochain:
    """The cochain with dense coordinates over `basis`, or sparse ones {position: Fraction}."""
    if not isinstance(coords, Mapping):
        coords = vec(coords)
        if len(coords) != len(basis):
            raise ValueError("coordinate vector and basis differ in length")
        coords = dict(enumerate(coords))
    zero = Fraction(0)
    table: dict[tuple[int, ...], list[Fraction]] = {}
    for k, c in coords.items():
        if c:
            tup, m = basis[k]
            table.setdefault(tup, [zero] * target.dim)[m] = c
    return make_cochain(source, target, arity, weight,
                        {t: tuple(v) for t, v in table.items()})


def wedge(psi: Cochain, phi: Cochain) -> Cochain:
    """Wedge of a scalar-valued form with an arbitrary cochain.

    psi must be valued in a one-dimensional even space.  The sum runs over
    (q, p)-shuffles: position subsets routed to psi, complement to phi.
    """
    if psi.target.dim != 1 or psi.target.parities[0] != EVEN:
        raise ValueError("left factor of a wedge must be valued in the trivial line")
    if psi.source != phi.source:
        raise ValueError("wedge factors have different sources")
    return _shuffle_sum(psi, phi, phi.target, lambda c, v: vec_scale(c[0], v))


def nr_bracket(phi: Cochain, psi: Cochain, algebra: SuperLieAlgebra) -> Cochain:
    """The wedge-bracket of two cochains valued in a super Lie algebra.

    Bidegree adds: (p, y) and (q, z) give (p + q, y + z).  The summand for
    a shuffle routes the first block to phi, the second to psi, and pairs
    the values with the bracket of the target algebra.
    """
    if phi.target != algebra.space or psi.target != algebra.space:
        raise ValueError("bracket requires both cochains valued in the given algebra")
    if phi.source != psi.source:
        raise ValueError("bracket factors have different sources")
    return _shuffle_sum(phi, psi, algebra.space, algebra.bracket_vec)


def _shuffle_sum(left: Cochain, right: Cochain, target: SuperVectorSpace, pair) -> Cochain:
    """Sum over shuffles of pair(left(first block), right(second block)).

    The first block of each shuffle has `left.arity` positions.  A summand
    carries the shuffle's sign times (-1)^(right.weight * b), b counting
    the odd arguments in the first block.
    """
    arity = left.arity + right.arity
    src = left.source
    table: dict[tuple[int, ...], Vector] = {}
    for tup in canonical_tuples(src, arity):
        word = tuple(src.parities[i] for i in tup)
        acc = zero_vec(target.dim)
        for subset in combinations(range(arity), left.arity):
            u = left.evaluate([tup[i] for i in subset])
            if is_zero_vec(u):
                continue
            rest = tuple(i for i in range(arity) if i not in subset)
            v = right.evaluate([tup[i] for i in rest])
            if is_zero_vec(v):
                continue
            sign = _sort_sign(list(subset + rest), word)
            if (right.weight * sum(word[i] for i in subset)) % 2:
                sign = -sign
            acc = vec_add(acc, vec_scale(Fraction(sign), pair(u, v)))
        if not is_zero_vec(acc):
            table[tup] = acc
    return make_cochain(src, target, arity, (left.weight + right.weight) % 2, table)


def _delta_stencil(alg: SuperLieAlgebra, tup: tuple[int, ...], weight: int):
    """The terms of (delta Phi)(X_tup) for a canonical tuple and a Phi of `weight`.

    Yields (coefficient, source tuple, generator): (delta Phi)(X_tup) is
    the sum over the terms of coefficient * alpha_generator(Phi(source
    tuple)), where generator None means no operator.  Source tuples are
    canonical.  The action term i drops argument i and carries
    (-1)^(x_i y + a_i); the bracket term (i < j, m) inserts e_m, m running
    over the support of [X_i, X_j] in `alg.structure`, into the canonical
    rest with one bisection, and carries its integer den c^m_ij times
    (-1)^a_ij and the `_passing_sign` of the entries e_m moves past; an
    even e_m already in the rest gives no term.
    This is the one place the signs of the differential are written down;
    `differential_matrix`, its one caller, writes them into sparse rows.
    """
    space, (_den, nz) = alg.space, alg.structure
    word = [space.parities[t] for t in tup]
    a = []
    before = 0
    for i, x in enumerate(word):
        a.append(x * before + i)
        before += x
    for i, t in enumerate(tup):
        yield (-1 if (word[i] * weight + a[i]) % 2 else 1), tup[:i] + tup[i + 1:], t
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            bracket = nz[tup[i]][tup[j]]
            if not bracket:
                continue
            rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
            odd = (a[i] + a[j] + word[i] * word[j]) % 2 == 1
            for m, c in bracket:  # e_m moves past the smaller entries of the canonical rest
                p = bisect_left(rest, m)
                if p < len(rest) and rest[p] == m and not space.parities[m]:
                    continue
                sign = _passing_sign(space.parities, m, rest[:p])
                yield (-c if (sign < 0) != odd else c), rest[:p] + (m,) + rest[p:], None


def _check_operators(src: SuperVectorSpace, target: SuperVectorSpace,
                     ops: Sequence[GradedLinearMap]) -> None:
    """ValueError unless `ops` holds one operator on `target` per basis element of
    `src`, each of that element's parity: the assignment is then degree 0."""
    if len(ops) != src.dim:
        raise ValueError("need one operator per basis element of g")
    for i, op in enumerate(ops):
        if op.domain != target or op.codomain != target:
            raise ValueError(f"operator {i} does not act on the target space")
        if op.degree != src.parities[i]:
            raise ValueError(f"operator {i} has degree {op.degree}: the assignment is not degree 0")


def chevalley_delta(source_alg: SuperLieAlgebra, phi: Cochain) -> Cochain:
    """Coboundary with only the bracket-insertion term (zero action)."""
    return covariant_delta(source_alg, zero_ops(source_alg.space, phi.target), phi)


def covariant_delta(
    source_alg: SuperLieAlgebra,
    alpha_ops: Sequence[GradedLinearMap],
    phi: Cochain,
) -> Cochain:
    """Covariant exterior derivative twisted by operators alpha on the target.

    `alpha_ops[i]` is the operator attached to source basis element i; the
    assignment must be degree 0, i.e. the operator parity equals the basis
    element's parity.  With all alpha zero this is `chevalley_delta`; it
    squares to [rho, .]_wedge when (alpha, rho) come from an extension.
    The rows of `differential_matrix` are applied to phi's coordinates.
    """
    if phi.source != source_alg.space:
        raise ValueError("cochain source does not match the algebra")
    return _apply_delta(differential_matrix(source_alg, alpha_ops, phi.target, phi.arity,
                                            phi.weight), phi)


def _apply_delta(delta, phi: Cochain) -> Cochain:
    """phi's image under `delta`, the `differential_matrix` of phi's (arity, weight) cochains."""
    rows, src_basis, dst_basis, scale = delta
    x = {k: c / scale for k, c in enumerate(cochain_coordinates(phi, src_basis)) if c}
    coords = {r: sum(c * x[k] for k, c in row.items() if k in x) for r, row in enumerate(rows)}
    return cochain_from_coordinates(phi.source, phi.target, phi.arity + 1, phi.weight,
                                    dst_basis, coords)


def differential_matrix(
    source_alg: SuperLieAlgebra,
    alpha_ops: Sequence[GradedLinearMap],
    target: SuperVectorSpace,
    arity: int,
    weight: int,
    bases=None,
):
    """Matrix of `covariant_delta` from (arity, weight) cochains to arity + 1.

    Returns (rows, source basis, target basis, scale): columns follow
    `space_basis` of the source, rows that of the target, and each row is
    a sparse {column: nonzero int} dict of `scale` times the matrix, scale
    being the lcm of the denominators of `structure` and of the operators'
    nonzero entries.  The matrix is assembled by target tuple: each term of
    `_delta_stencil` at a target tuple hits one canonical source tuple, so
    row (tuple, r) is a sparse sum of +-alpha entries and +-structure
    constants.  The work is linear in the number of nonzero entries; no
    unit cochain is differentiated and no row is written out densely.
    `bases`, (source entries, target entries) in `space_basis` order,
    selects a block that the differential must keep; a term of its rows
    outside its columns is an internal fault.
    """
    src = source_alg.space
    _check_operators(src, target, alpha_ops)
    src_basis, dst_basis = bases or (space_basis(src, target, arity, weight),
                                     space_basis(src, target, arity + 1, weight))
    col = {key: k for k, key in enumerate(src_basis)}
    den = source_alg.structure[0]
    scale = lcm(den, *(c.denominator for op in alpha_ops for col in op.columns for _r, c in col))
    bracket_factor = scale // den
    # action[i][r] (negated[i][r]): the nonzero entries (m, scale c) of row r of alpha_i (-alpha_i)
    action = [[[(m, c.numerator * (scale // c.denominator)) for m, c in row.items()]
               for row in sparse_transpose(map(dict, op.columns), target.dim)] for op in alpha_ops]
    negated = [[[(m, -c) for m, c in row] for row in op] for op in action]
    acting = [any(op) for op in action]
    rows = []
    try:
        for tup, group in groupby(dst_basis, key=itemgetter(0)):
            # each term as (source tuple, its entries (m, c) by target row r)
            terms = []
            for coef, rest, gen in _delta_stencil(source_alg, tup, weight):
                if gen is None:
                    c = coef * bracket_factor
                    terms.append((rest, [((r, c),) for r in range(target.dim)]))
                elif acting[gen]:  # an action coefficient is +-1; a zero alpha adds nothing
                    terms.append((rest, action[gen] if coef > 0 else negated[gen]))
            for _tup, r in group:
                row: dict[int, int] = {}
                for rest, entries in terms:
                    for m, c in entries[r]:
                        k = col[(rest, m)]
                        x = row.get(k)
                        row[k] = c if x is None else x + c
                rows.append(row if all(row.values()) else {k: x for k, x in row.items() if x})
    except KeyError as ex:
        rest, m = ex.args[0]
        in_space = target.parities[m] == (weight + sum(src.parities[i] for i in rest)) % 2
        if bases is not None and in_space:  # degree 0 holds, but the block is not kept
            raise RuntimeError("internal fault: a stencil term leaves the kept block") from None
        raise ValueError("the bracket is not degree 0: the differential leaves "
                         "the cochain space") from None
    return tuple(rows), src_basis, dst_basis, scale


def zero_ops(source: SuperVectorSpace, target: SuperVectorSpace) -> tuple[GradedLinearMap, ...]:
    """Zero operator family of the right degrees (the untwisted case)."""
    return tuple(
        GradedLinearMap.zero(target, target, source.parities[i]) for i in range(source.dim)
    )
