"""Super Lie algebras given by structure constants.

An algebra is an ordered graded basis plus the bracket table
c[i][j] = [e_i, e_j] as a coordinate vector.  Everything downstream
(validation, ad, center, derivations, out = der/ad, homomorphism checks)
is exact linear algebra on that table.  der(h) is one record, the
`DerivationSpace`, whose inner-first basis is its one coordinate system and
whose trailing coordinates are out(h); `lift_alpha_bar` lifts g -> out(h)
through it.  The cached views are an algebra's dense `brackets`, for
output, and a `DerivationSpace`'s eliminated basis and out(h); nothing is
cached across calls: a pipeline calls `derivations` once and passes it on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterator, Sequence

from .gvs import (
    GradedLinearMap,
    IncrementalSpan,
    LinearSystem,
    Record,
    SuperVectorSpace,
    Vector,
    _commutator,
    _map,
    dense_vec,
    is_zero_vec,
    scalar,
    vec,
    vec_scale,
    zero_vec,
)


class SuperLieAlgebra(Record):
    """A super vector space with the structure constants of a bilinear bracket.

    `structure` = (den, table): table[i][j] lists the nonzero (k, den c^k_ij)
    of [e_i, e_j] as ints, den being the lcm of the constants' denominators.
    `make_algebra` writes it; every sparse loop over the constants reads it,
    and divides by den (den^2 for a Jacobi residual) only where a value
    leaves the loop.  The constructor only checks shapes; use
    `validate_algebra` for the degree-0, antisymmetry and Jacobi conditions
    (invalid tables must be constructible so they can be reported on).
    """

    space: SuperVectorSpace
    structure: tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]

    def __post_init__(self):
        n, table = self.space.dim, self.structure[1]
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("bracket table must be dim x dim")

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket_vec(self, u: Sequence, v: Sequence) -> Vector:
        """[u, v], summing over nonzero coefficient pairs; every entry is a Fraction."""
        den, table = self.structure
        v_nz = [(j, b) for j, b in enumerate(vec(v)) if b]
        out = list(zero_vec(self.dim))
        for i, a in enumerate(vec(u)):
            if not a:
                continue
            row = table[i]
            for j, b in v_nz:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return tuple(x / den for x in out)

    def is_abelian(self) -> bool:
        return not any(v for row in self.structure[1] for v in row)

    @cached_property
    def brackets(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense table c[i][j] = [e_i, e_j] of Fractions, a view of `structure`
        for output, built on first read and kept with the algebra."""
        den, table = self.structure
        return tuple(tuple(dense_vec({k: Fraction(c, den) for k, c in v}, self.dim) for v in row)
                     for row in table)


def make_algebra(space: SuperVectorSpace, table: dict[tuple[int, int], Sequence]) -> SuperLieAlgebra:
    """Algebra from a sparse {(i, j): vector} table; unlisted entries are 0.  An entry
    that is not an exact zero (int or Fraction 0) passes `scalar`: 0.0 is refused."""
    n = space.dim
    nz = [[()] * n for _ in range(n)]
    for (i, j), v in table.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket pair ({i}, {j}) is outside the basis 0..{n - 1}")
        if len(v) != n:
            raise ValueError("bracket value has wrong length")
        nz[i][j] = tuple((k, c) for k, c in ((k, scalar(c)) for k, c in enumerate(v)
                                             if c or type(c) not in (int, Fraction)) if c)
    den = lcm(*(c.denominator for row in nz for v in row for _k, c in v))
    return SuperLieAlgebra(space, (den, tuple(tuple(tuple(
        (k, c.numerator * (den // c.denominator)) for k, c in v) for v in row) for row in nz)))


def antisymmetric_completion(space: SuperVectorSpace, given: dict) -> dict[tuple[int, int], Vector]:
    """A {(i, j): [e_i, e_j]} table with each (j, i) that is not listed filled in.

    Graded antisymmetry gives [e_j, e_i] = -(-1)^{x_i x_j} [e_i, e_j].  A pair
    listed both ways must agree, or ValueError names the first that does not.
    """
    table = dict(given)
    for (i, j), v in given.items():
        if i == j:
            continue
        sign = -1 if (space.parities[i] * space.parities[j]) % 2 == 0 else 1
        mirrored = vec_scale(Fraction(sign), v)
        if (j, i) not in given:
            table[(j, i)] = mirrored
        elif given[(j, i)] != mirrored:
            a, b = space.names[i], space.names[j]
            raise ValueError(f"[{a},{b}] and [{b},{a}] conflict with graded antisymmetry")
    return table


def algebra_from_table(
    names: Sequence[str],
    parities: Sequence[int],
    table: dict[tuple[str, str], dict[str, object]],
) -> SuperLieAlgebra:
    """Algebra from named brackets, e.g. {("Q", "Q"): {"H": 2}}.

    Unlisted brackets are zero.  A bracket listed for (i, j) fills (j, i)
    by graded antisymmetry; listing both is an error unless consistent.
    """
    space = SuperVectorSpace(tuple(names), tuple(parities))
    given = {(space.index(ln), space.index(rn)):
             dense_vec({space.index(bn): scalar(c) for bn, c in val.items()}, space.dim)
             for (ln, rn), val in table.items()}
    return make_algebra(space, antisymmetric_completion(space, given))


def bracket_algebra(space: SuperVectorSpace,
                    bracket: Callable[[int, int], Vector]) -> SuperLieAlgebra:
    """The algebra with [e_i, e_j] = bracket(i, j), called for i <= j only.

    `bracket` must be graded antisymmetric, as a graded commutator in linear
    coordinates is: `antisymmetric_completion` fills in each pair j > i.
    """
    table: dict[tuple[int, int], Vector] = {}
    for i in range(space.dim):
        for j in range(i, space.dim):
            v = bracket(i, j)
            if not is_zero_vec(v):
                table[(i, j)] = v
    return make_algebra(space, antisymmetric_completion(space, table))


def abelian_algebra(names: Sequence[str], parities: Sequence[int]) -> SuperLieAlgebra:
    return make_algebra(SuperVectorSpace(tuple(names), tuple(parities)), {})


def _block_sum(a: SuperLieAlgebra, b: SuperLieAlgebra, suffixes: tuple[str, str]):
    """The space of a (+) b, basis of `a` first, and its two-block table
    {(i, j): {k: nonzero Fraction}}; names get the suffixes only on clash."""
    names_a, names_b = a.space.names, b.space.names
    if set(names_a) & set(names_b):
        names_a = tuple(n + suffixes[0] for n in names_a)
        names_b = tuple(n + suffixes[1] for n in names_b)
    space = SuperVectorSpace(names_a + names_b, a.space.parities + b.space.parities)
    table = {(s + i, s + j): {s + k: Fraction(c, den) for k, c in v}
             for s, (den, nz) in ((0, a.structure), (a.dim, b.structure))
             for i, row in enumerate(nz) for j, v in enumerate(row) if v}
    return space, table


def direct_sum(a: SuperLieAlgebra, b: SuperLieAlgebra) -> SuperLieAlgebra:
    """Direct sum with the basis of `a` first; names get .1 and .2 only on clash."""
    space, table = _block_sum(a, b, (".1", ".2"))
    return make_algebra(space, {ij: dense_vec(v, space.dim) for ij, v in table.items()})


class ValidationReport(Record):
    degree_zero: bool
    antisymmetry: bool
    jacobi: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.degree_zero and self.antisymmetry and self.jacobi


def _antisymmetry_failures(alg: SuperLieAlgebra) -> Iterator[str]:
    """One message per pair i <= j with [e_j, e_i] != -(-1)^{x_i x_j} [e_i, e_j], in order."""
    sp, (_den, nz) = alg.space, alg.structure
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            sign = -1 if (sp.parities[i] * sp.parities[j]) % 2 == 0 else 1
            if nz[j][i] != tuple((k, sign * c) for k, c in nz[i][j]):
                yield (f"antisymmetry: [{sp.names[j]},{sp.names[i]}] != "
                       f"{'+' if sign > 0 else '-'}[{sp.names[i]},{sp.names[j]}]")


def validate_algebra(alg: SuperLieAlgebra) -> ValidationReport:
    """Check degree 0, graded antisymmetry, and the graded Jacobi identity.

    Jacobi is checked on ordered triples i <= j <= k only (with repeats);
    once antisymmetry holds the remaining triples follow from it.  Each
    cyclic sum, den^2 times its value, runs over the integer `structure`.
    """
    sp = alg.space
    n = alg.dim
    fails: list[str] = []
    den, nz = alg.structure

    deg_ok = True
    for i in range(n):
        for j in range(n):
            want = (sp.parities[i] + sp.parities[j]) % 2
            for k, _c in nz[i][j]:
                if sp.parities[k] != want:
                    deg_ok = False
                    fails.append(
                        f"degree: [{sp.names[i]},{sp.names[j]}] has parity-{sp.parities[k]} "
                        f"component {sp.names[k]} but should be parity {want}"
                    )

    anti = list(_antisymmetry_failures(alg))
    anti_ok = not anti
    fails.extend(anti)

    jac_ok = True
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                # sum_cyc s [e_a, [e_b, e_c]] = sum_cyc s sum_m c^m_bc c^q_am e_q
                res: dict[int, int] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    s = -1 if (sp.parities[a] * sp.parities[c]) % 2 else 1
                    nz_a = nz[a]
                    for m, x in nz[b][c]:
                        sx = s * x
                        for q, y in nz_a[m]:
                            res[q] = res.get(q, 0) + sx * y
                if any(res.values()):
                    jac_ok = False
                    res_str = " + ".join(f"{Fraction(c, den * den)}*{sp.names[m]}"
                                         for m, c in sorted(res.items()) if c != 0)
                    fails.append(
                        f"jacobi: residual on ({sp.names[i]},{sp.names[j]},{sp.names[k]}) "
                        f"= {res_str}"
                    )

    return ValidationReport(deg_ok, anti_ok, jac_ok, tuple(fails))


def ad(alg: SuperLieAlgebra, x: Sequence, degree: int | None = None) -> GradedLinearMap:
    """ad_X: Y -> [X, Y]; degree = parity of the homogeneous element X.

    For the zero vector the degree is ambiguous; pass it explicitly when a
    particular homogeneity slot is required.
    """
    x = vec(x)
    p = alg.space.vector_parity(x)
    if p is None:
        raise ValueError("ad requires a parity-homogeneous element")
    if degree is not None:
        if not is_zero_vec(x) and degree != p:
            raise ValueError(f"element has parity {p}, not {degree}")
        p = degree
    return _flat_map(alg.space, p, _ad_flat(alg, x))


def _flat_map(space: SuperVectorSpace, degree: int, flat: dict[int, Fraction]) -> GradedLinearMap:
    """The map of one space with the Fraction entries {i n + j: a_ij}, zeros dropped,
    written as they are: in row-major order each column's rows ascend."""
    n = space.dim
    cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for t, a in sorted(flat.items()):
        if a:
            cols[t % n].append((t // n, a))
    return GradedLinearMap(space, space, degree, tuple(map(tuple, cols)))


def _ad_flat(alg: SuperLieAlgebra, x: Sequence) -> dict[int, Fraction]:
    """ad_X as {k n + j: nonzero}: column j holds [X, e_j] = sum_i x_i c^k_ij e_k."""
    n, (den, table) = alg.dim, alg.structure
    out: dict[int, Fraction] = {}
    for i, xi in enumerate(x):
        if xi:
            for j, v in enumerate(table[i]):
                for k, c in v:
                    out[k * n + j] = out.get(k * n + j, 0) + xi * c
    return {t: y / den for t, y in out.items() if y}


def center(alg: SuperLieAlgebra) -> list[Vector]:
    """Basis of the graded center {Z : [Z, h] = 0}, both parities included.

    Computed as the joint kernel of all ad_{e_i}, whose row (i, k) is
    {j: den c^k_ij}, read off the integer `structure`; each basis vector
    is parity-homogeneous because the system never couples parities.
    """
    rows = []
    for row in alg.structure[1]:
        ad_rows: dict[int, dict[int, int]] = {}  # k -> row k of den ad_{e_i}
        for j, v in enumerate(row):
            for k, c in v:
                ad_rows.setdefault(k, {})[j] = c
        rows.extend(ad_rows.values())
    return [dense_vec(v, alg.dim) for v in IncrementalSpan(rows).kernel(alg.dim)]


def _leibniz_terms(nz, s: int, a: int, b: int, cols) -> Iterator[tuple[int, int, object]]:
    """den (D[e_a,e_b] - [De_a,e_b] - s[e_a,De_b]) over the integer table `nz`, term by
    term: (k, c, x) adds c x to component k, for each entry (i, x) of D's column
    lists `cols`, which hold values for a given D or the slots of an unknown one."""
    for m, c in nz[a][b]:  # D[e_a, e_b] = sum_m c^m_ab D e_m
        for k, x in cols[m]:
            yield k, c, x
    for i, x in cols[a]:  # -[D e_a, e_b] = -sum_i D_ia [e_i, e_b]
        for k, c in nz[i][b]:
            yield k, -c, x
    for i, x in cols[b]:  # -s [e_a, D e_b] = -s sum_i D_ib [e_a, e_i]
        for k, c in nz[a][i]:
            yield k, -s * c, x


def is_derivation(alg: SuperLieAlgebra, d: GradedLinearMap) -> bool:
    """Graded Leibniz check D[X,Y] = [DX,Y] + (-1)^{deg D * x}[X,DY] on all pairs.

    Each residual, den times its value, is summed by `_leibniz_terms` over
    the integer `structure` and the nonzero entries of D.
    """
    n, nz = alg.dim, alg.structure[1]
    for a in range(n):
        s = -1 if (d.degree * alg.space.parities[a]) % 2 else 1
        for b in range(n):
            res: dict[int, Fraction] = {}
            for k, c, x in _leibniz_terms(nz, s, a, b, d.columns):
                res[k] = res.get(k, 0) + c * x
            if any(res.values()):
                return False
    return True


class DerivationSpace(Record):
    """Basis of der(h), ordered inner derivations first, then a complement.

    `inner_preimages[k]` is an explicit H in h with ad_H = basis[k], for
    k < inner_count.  The inner-first ordering makes ad(h) the span of the
    leading coordinates and out(h) = der(h)/ad(h) the trailing ones: `out`
    brackets the complement members, `proj` keeps their coordinates and
    `lift_coordinates` is its section, which fixes the lifts used by the
    cohomology pipeline.
    """

    algebra: SuperLieAlgebra
    basis: tuple[GradedLinearMap, ...]
    inner_count: int
    inner_preimages: tuple[Vector, ...]

    @property
    def space(self) -> SuperVectorSpace:
        return SuperVectorSpace(
            tuple(f"D{k}" for k in range(len(self.basis))),
            tuple(d.degree for d in self.basis),
        )

    @cached_property
    def _coordinates(self) -> LinearSystem:
        """The flattened basis as columns, eliminated on first use and kept."""
        return LinearSystem([d._flat_nonzeros() for d in self.basis], self.algebra.dim ** 2)

    def coordinates_of(self, m: GradedLinearMap | dict[int, Fraction]) -> Vector | None:
        """Coordinates of a map or its {flat index: nonzero} dict; None outside the span."""
        return self._coordinates.solve(m if isinstance(m, dict) else m._flat_nonzeros())

    def combination(self, coords: Sequence, degree: int) -> GradedLinearMap:
        """sum_k coords[k] D_k, a map of the given degree (zero for zero coords)."""
        acc: dict[int, Fraction] = {}
        for d, c in zip(self.basis, coords):
            if c:
                for t, x in d._flat_nonzeros().items():
                    acc[t] = acc.get(t, 0) + c * x
        return _flat_map(self.algebra.space, degree, acc)

    def bracket(self, a: GradedLinearMap, b: GradedLinearMap) -> Vector:
        """Coordinates of the graded commutator of two derivations in this basis."""
        coords = self._coordinates.solve(_commutator(a, b))
        if coords is None:
            raise RuntimeError("derivations are not closed under the commutator")
        return coords

    @cached_property
    def out(self) -> SuperLieAlgebra:
        """out(h), bracketed on the complement members on first read and kept."""
        c, sp, basis = self.inner_count, self.space, self.basis
        out_space = SuperVectorSpace(sp.names[c:], sp.parities[c:])
        return bracket_algebra(out_space, lambda a, b: self.bracket(basis[c + a], basis[c + b])[c:])

    @property
    def proj(self) -> GradedLinearMap:
        """The projection der(h) -> out(h), which keeps the trailing coordinates."""
        c, m = self.inner_count, len(self.basis)
        return _map(self.space, self.out.space, 0, [{}] * c + [{a: 1} for a in range(m - c)])

    def lift_coordinates(self, x: Sequence) -> Vector:
        """der(h) coordinates of the complement representative of x in out(h)."""
        return zero_vec(self.inner_count) + vec(x)


def _derivation_basis_of_parity(alg: SuperLieAlgebra, deg: int) -> list[GradedLinearMap]:
    """Solve the graded Leibniz system for homogeneous derivations of one parity.

    The unknowns are the entries D_ij allowed by the parity (the slots);
    each pair (a, b) gives one equation per component k of
    D[e_a,e_b] - [D e_a,e_b] - (-1)^{deg*x_a}[e_a,D e_b] = 0.  On a graded
    antisymmetric table the rows of (b, a) are -(-1)^{x_a x_b} times those
    of (a, b), so only pairs a <= b are written, and the kernel, which
    depends on the row space only, is unchanged.  The rows, summed by
    `_leibniz_terms` over the integer `structure`, are sparse {slot: int}
    dicts, all den times their values, and go straight to `IncrementalSpan.kernel`.
    """
    sp = alg.space
    n = alg.dim
    slots = [(i, j) for i in range(n) for j in range(n)
             if sp.parities[i] == (sp.parities[j] + deg) % 2]
    if not slots:
        return []
    slot_index = {ij: k for k, ij in enumerate(slots)}
    # col_slots[j]: (i, slot of D_ij) for every D_ij allowed in column j
    col_slots = [[(i, slot_index[(i, j)]) for i in range(n) if (i, j) in slot_index]
                 for j in range(n)]
    nz = alg.structure[1]

    def leibniz_rows():
        for a in range(n):
            s = -1 if (deg * sp.parities[a]) % 2 else 1
            for b in range(a, n):
                rows: dict[int, dict[int, int]] = {}  # component k -> row
                for k, c, t in _leibniz_terms(nz, s, a, b, col_slots):
                    r = rows.setdefault(k, {})
                    r[t] = r.get(t, 0) + c
                for r in rows.values():
                    r = {t: x for t, x in r.items() if x}
                    if r:
                        yield r

    return [_flat_map(sp, deg, {slots[k][0] * n + slots[k][1]: x for k, x in kv.items()})
            for kv in IncrementalSpan(leibniz_rows()).kernel(len(slots))]


def derivations(alg: SuperLieAlgebra) -> DerivationSpace:
    """All graded derivations of the algebra, solved per parity.

    Basis order: inner derivations (parities 0 then 1, in reduced echelon
    form of the span of the ad matrices), then complement members taken
    from the per-parity solution bases, sifted by the same span of the ad
    matrices.  One `LinearSystem` per parity holds the integer columns den
    ad_{e_i}: each kept row (p, r, t) gives the member r / r[p] and the
    canonical preimage den t / r[p], checked as r = sum_j t_j den ad_{e_j};
    the Leibniz kernel is sifted as its further columns.  Every call solves
    the system afresh.  The table must be graded antisymmetric, or
    ValueError names the first pair that is not.
    """
    bad = next(_antisymmetry_failures(alg), None)
    if bad is not None:
        raise ValueError(f"derivations need a graded antisymmetric table: {bad}")
    n, (den, table) = alg.dim, alg.structure
    inner_maps, preimages, outer_maps = [], [], []  # outer_maps: one list per parity
    for deg in (0, 1):
        gens = [i for i in range(n) if alg.space.parities[i] == deg]
        cols = [{k * n + j: c for j, v in enumerate(table[i]) for k, c in v} for i in gens]
        system = LinearSystem(cols, n * n)
        for p, r, ts in system.kept_rows():
            acc: dict[int, int] = {}
            for j, t in ts.items():
                for i, x in cols[j].items():
                    acc[i] = acc.get(i, 0) + t * x
            if {i: x for i, x in acc.items() if x} != r:
                raise RuntimeError("internal fault: an inner derivation is not an ad_H")
            inner_maps.append(_flat_map(alg.space, deg, {i: Fraction(x, r[p]) for i, x in r.items()}))
            preimages.append(dense_vec({gens[j]: Fraction(den * t, r[p]) for j, t in ts.items()}, n))
        outer_maps.append([d for d in _derivation_basis_of_parity(alg, deg)
                           if system.add_column(d._flat_nonzeros())])
    # inner parity 0, inner parity 1, complement parity 0, complement parity 1
    basis = tuple(inner_maps) + tuple(outer_maps[0]) + tuple(outer_maps[1])
    return DerivationSpace(alg, basis, len(inner_maps), tuple(preimages))


def out_quotient(alg: SuperLieAlgebra) -> tuple[SuperLieAlgebra, GradedLinearMap]:
    """The quotient out(h) = der(h)/ad(h) with its projection from der(h)."""
    ds = derivations(alg)
    return ds.out, ds.proj


def lift_alpha_bar(ds: DerivationSpace, g: SuperLieAlgebra,
                   abar: GradedLinearMap) -> tuple[GradedLinearMap, ...]:
    """The deterministic linear lift of abar: g -> out(h) to operators on h.

    `ds` is the caller's `derivations(h)`.  Each out(h) basis element
    corresponds to one complement member of the inner-first derivation
    basis, so abar(e_i) lifts to the combination with coordinates
    `ds.lift_coordinates(abar(e_i))` and the projection of the lift is
    abar again.  This is the one check on abar: it must be a degree-0
    homomorphism g -> out(h), or ValueError is raised.  Nothing is cached
    across calls.
    """
    if abar.domain != g.space or abar.codomain != ds.out.space or abar.degree != 0:
        raise ValueError("abar must be a degree-0 map g -> out(h)")
    if not is_homomorphism(abar, g, ds.out):
        raise ValueError("abar is not a homomorphism into out(h)")
    return tuple(ds.combination(ds.lift_coordinates(abar.column(i)), p)
                 for i, p in enumerate(g.space.parities))


def commutator_defect(g: SuperLieAlgebra, ops: Sequence[GradedLinearMap],
                      i: int, j: int) -> dict[int, Fraction]:
    """[op_i, op_j] - sum_m c^m_ij op_m for operators attached to the basis of g.

    The result is sparse, {i n + j: nonzero} in the row-major flattening
    of the operators.  It is empty on every pair exactly when e_i -> op_i
    respects the bracket of g, i.e. is a homomorphism into the graded
    commutator algebra.
    """
    den, table = g.structure
    defect = _commutator(ops[i], ops[j])
    for m, c in table[i][j]:
        c = Fraction(c, den)
        for t, x in ops[m]._flat_nonzeros().items():
            defect[t] = defect.get(t, 0) - c * x
    return {t: x for t, x in defect.items() if x}


def is_homomorphism(f: GradedLinearMap, src: SuperLieAlgebra, dst: SuperLieAlgebra) -> bool:
    """True iff f[e_i, e_j] = [f e_i, f e_j] on all basis pairs (f of degree 0)."""
    if f.degree != 0:
        raise ValueError("homomorphisms are of degree 0")
    if f.domain != src.space or f.codomain != dst.space:
        raise ValueError("map does not connect the given algebras")
    cols, (src_den, src_table), (dst_den, dst_table) = f.columns, src.structure, dst.structure
    for i, row in enumerate(src_table):
        for j, v in enumerate(row):
            res: dict[int, Fraction] = {}  # both dens times f[e_i, e_j] - [f e_i, f e_j]
            for m, c in v:
                for k, x in cols[m]:
                    res[k] = res.get(k, 0) + dst_den * c * x
            for p, x in cols[i]:
                for q, y in cols[j]:
                    for k, c in dst_table[p][q]:
                        res[k] = res.get(k, 0) - src_den * x * y * c
            if any(res.values()):
                return False
    return True
