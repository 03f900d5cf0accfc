"""Extension data and extension triples of super Lie algebras.

An extension 0 -> h -> e -> g -> 0 together with a degree-0 linear
section g -> e induces a connection alpha: g -> der(h) and a curvature
rho (the 2-cochain measuring how far the section is from a
homomorphism).  Conversely a pair (alpha, rho) satisfying the
commutator-defect and cyclic-curvature conditions rebuilds the bracket
on h (+) g.  This module implements both directions, the change of
section, equivalence and splitting witnesses, the abelian-kernel split
solver and the pullback construction for centerless kernels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .gvs import (
    GradedLinearMap,
    IncrementalSpan,
    LinearSystem,
    Record,
    SuperVectorSpace,
    Vector,
    _map,
    dense_vec,
    sparse_kernel_basis,
    sparse_transpose,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .superlie import (
    DerivationSpace,
    SuperLieAlgebra,
    _ad_flat,
    ad,
    bracket_algebra,
    center,
    commutator_defect,
    derivations,
    is_derivation,
    is_homomorphism,
    lift_alpha_bar,
    make_algebra,
    validate_algebra,
)
from .cochains import (
    Cochain,
    _check_operators,
    canonical_tuples,
    cochain_coordinates,
    covariant_delta,
    differential_matrix,
    make_cochain,
    nr_bracket,
    zero_ops,
)


class ExtensionDatum(Record):
    """A connection/curvature pair (alpha, rho) between fixed g and h.

    alpha is stored per g-basis element as an operator on h whose degree
    equals the basis element's parity (so the assignment X -> alpha_X is
    degree 0); rho is a weight-0 2-cochain g^2 -> h.  Structural shape is
    enforced here; the derivation property of the operators and the two
    compatibility conditions are checked by `check_datum`, which must be
    allowed to report on broken data.
    """

    g: SuperLieAlgebra
    h: SuperLieAlgebra
    alpha: tuple[GradedLinearMap, ...]
    rho: Cochain

    def __post_init__(self):
        _check_operators(self.g.space, self.h.space, self.alpha)
        if (self.rho.source, self.rho.target) != (self.g.space, self.h.space):
            raise ValueError("rho must map g^2 to h")
        if (self.rho.arity, self.rho.weight) != (2, 0):
            raise ValueError("rho must have arity 2 and weight 0")


def trivial_datum(g: SuperLieAlgebra, h: SuperLieAlgebra) -> ExtensionDatum:
    """The datum of the direct sum: alpha = 0, rho = 0."""
    return ExtensionDatum(g, h, zero_ops(g.space, h.space), make_cochain(g.space, h.space, 2, 0))


class ExtensionTriple(Record):
    """An exact sequence 0 -> h -> e -> g -> 0 with an optional section."""

    h: SuperLieAlgebra
    g: SuperLieAlgebra
    e: SuperLieAlgebra
    incl: GradedLinearMap
    proj: GradedLinearMap
    section: GradedLinearMap | None = None

    def __post_init__(self):
        if self.incl.domain != self.h.space or self.incl.codomain != self.e.space:
            raise ValueError("inclusion must map h into e")
        if self.proj.domain != self.e.space or self.proj.codomain != self.g.space:
            raise ValueError("projection must map e onto g")
        if self.incl.degree != 0 or self.proj.degree != 0:
            raise ValueError("inclusion and projection must be degree 0")
        if self.section is not None:
            _check_section(self, self.section)


def _check_section(t: ExtensionTriple, s: GradedLinearMap) -> None:
    if s.domain != t.g.space or s.codomain != t.e.space or s.degree != 0:
        raise ValueError("section must be a degree-0 map g -> e")
    if t.proj.compose(s) != GradedLinearMap.identity_map(t.g.space):
        raise ValueError("section is not a right inverse of the projection")


def validate_triple(t: ExtensionTriple) -> bool:
    """Exactness and homomorphism checks for a triple."""
    if IncrementalSpan(map(dict, t.incl.columns)).rank != t.h.dim:
        return False
    if IncrementalSpan(map(dict, t.proj.columns)).rank != t.g.dim:
        return False
    if t.e.dim != t.h.dim + t.g.dim:
        return False
    if not t.proj.compose(t.incl).is_zero():
        return False
    return is_homomorphism(t.incl, t.h, t.e) and is_homomorphism(t.proj, t.e, t.g)


def canonical_section(t: ExtensionTriple) -> GradedLinearMap:
    """The canonical right inverse of the projection (free coordinates 0)."""
    proj_system = LinearSystem(map(dict, t.proj.columns), t.g.dim)
    cols = []
    for j in range(t.g.dim):
        v = proj_system.solve(unit_vec(t.g.dim, j))
        if v is None:
            raise ValueError("projection is not surjective")
        cols.append(v)
    return _map(t.g.space, t.e.space, 0, cols)


def induced_data(t: ExtensionTriple, s: GradedLinearMap | None = None) -> ExtensionDatum:
    """Connection and curvature induced by a section.

    alpha_X is the bracket action of s(X) on the embedded copy of h,
    pulled back through the inclusion; rho(X, Y) is the h-valued failure
    of s to be a homomorphism.  Values outside the image of the inclusion
    mean the triple is not exact (or s is not a section) and raise.
    """
    if s is None:
        s = t.section
        if s is None:
            raise ValueError("the triple carries no section; pass one")
    _check_section(t, s)
    h, g, e = t.h, t.g, t.e
    incl_system = LinearSystem(map(dict, t.incl.columns), e.dim)
    alpha = []
    for j in range(g.dim):
        sx = s.column(j)
        cols = []
        for k in range(h.dim):
            v = incl_system.solve(e.bracket_vec(sx, t.incl.column(k)))
            if v is None:
                raise ValueError(
                    f"[s({g.space.names[j]}), h] leaves the kernel: the sequence is not exact"
                )
            cols.append(v)
        alpha.append(_map(h.space, h.space, g.space.parities[j], cols))
    table = {}
    for (j, k) in canonical_tuples(g.space, 2):
        w = e.bracket_vec(s.column(j), s.column(k))
        s_jk = s.apply(g.bracket_vec(unit_vec(g.dim, j), unit_vec(g.dim, k)))
        v = incl_system.solve(vec_add(w, vec_scale(Fraction(-1), s_jk)))
        if v is None:
            raise ValueError(
                f"curvature on ({g.space.names[j]},{g.space.names[k]}) lands outside h: "
                "the sequence is not exact"
            )
        table[(j, k)] = v
    rho = make_cochain(g.space, h.space, 2, 0, table)
    return ExtensionDatum(g, h, tuple(alpha), rho)


class DatumReport(Record):
    """Exact residual report for the extension-datum conditions."""

    derivation_ok: tuple[bool, ...]
    commutator_defect_ok: bool
    cyclic_curvature_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.derivation_ok) and self.commutator_defect_ok and self.cyclic_curvature_ok


def check_datum(d: ExtensionDatum) -> DatumReport:
    """Check that (alpha, rho) is genuine extension data.

    Three layers: each alpha operator is a graded derivation of h; the
    commutator defect [alpha_X, alpha_Y] - alpha_[X,Y] equals ad_rho(X,Y)
    on all basis pairs; and delta_alpha rho = 0, read from `covariant_delta`.
    A failure of the last is reported on each ordered basis triple as the
    cyclic curvature sum sum_cyc (-1)^{xz} (alpha_X rho(Y,Z) - rho([X,Y], Z)),
    which is (-1)^{xz} (delta_alpha rho)(X, Y, Z).  g must be a valid
    algebra, as `validate_algebra` checks: on a bracket that is not degree
    0, `covariant_delta` raises ValueError.
    """
    g, h = d.g, d.h
    fails: list[str] = []
    der_ok = tuple(is_derivation(h, op) for op in d.alpha)
    for i, ok in enumerate(der_ok):
        if not ok:
            fails.append(f"alpha[{g.space.names[i]}] is not a graded derivation of h")

    conn_ok = True
    for i in range(g.dim):
        for j in range(g.dim):
            if commutator_defect(g, d.alpha, i, j) != _ad_flat(h, d.rho.evaluate((i, j))):
                conn_ok = False
                fails.append(
                    f"commutator defect on ({g.space.names[i]},{g.space.names[j]}) "
                    "is not ad of the curvature"
                )

    lam, par, names = covariant_delta(g, d.alpha, d.rho), g.space.parities, g.space.names
    for i, j, k in product(range(g.dim), repeat=3) if lam.values else ():
        res = lam.evaluate((i, j, k))
        if any(res):
            res = vec_scale(Fraction(-1), res) if par[i] * par[k] else res
            fails.append(f"cyclic curvature residual on ({names[i]},{names[j]},{names[k]}) = {res}")
    return DatumReport(der_ok, conn_ok, lam.is_zero(), tuple(fails))


def _require_valid(d: ExtensionDatum) -> None:
    """Raise ValueError naming `check_datum`'s first failures of d, if it has any."""
    if not (rep := check_datum(d)).ok:
        raise ValueError("datum fails the extension conditions: " + "; ".join(rep.failures[:3]))


def raw_extension_algebra(d: ExtensionDatum) -> SuperLieAlgebra:
    """The bracket table on h (+) g from a datum, with no validity check.

    It is written from the nonzero entries of h's and g's tables, as their
    `structure` lists them, and of each alpha operator and of rho.  For a
    datum failing the extension conditions the result fails the Jacobi
    identity; `build_extension` is the checked entry point.  Basis names
    get the suffixes .h and .g if h and g share one.
    """
    g, h = d.g, d.h
    nh, par = h.dim, h.space.parities + g.space.parities
    names_h, names_g = h.space.names, g.space.names
    if set(names_h) & set(names_g):
        names_h, names_g = [n + ".h" for n in names_h], [n + ".g" for n in names_g]
    table = {(s + i, s + j): {s + k: Fraction(c, den) for k, c in v}
             for s, (den, nz) in ((0, h.structure), (nh, g.structure))
             for i, row in enumerate(nz) for j, v in enumerate(row) if v}

    def put(i, j, k, x):  # [e_i, e_j] gets x e_k, and [e_j, e_i] its graded mirror
        table.setdefault((i, j), {})[k] = x
        table.setdefault((j, i), {})[k] = x if (par[i] * par[j]) % 2 else -x

    for j, op in enumerate(d.alpha):
        for a, col in enumerate(op.columns):
            for k, x in col:
                put(nh + j, a, k, x)
    for (i, j), val in d.rho.values:
        for k, x in enumerate(val):
            if x:
                put(nh + i, nh + j, k, x)
    space = SuperVectorSpace(tuple(names_h) + tuple(names_g), par)
    return make_algebra(space, {ij: dense_vec(v, nh + g.dim) for ij, v in table.items()})


def build_extension(d: ExtensionDatum) -> ExtensionTriple:
    """The extension algebra on h (+) g rebuilt from a valid datum.

    Bracket: [H1+X1, H2+X2] = ([H1,H2] + alpha_X1 H2 - (-1)^{x2 h1} alpha_X2 H1
    + rho(X1,X2)) + [X1,X2].  Refuses to build when `check_datum` fails;
    the result always passes `validate_algebra` and round-trips through
    `induced_data` with the canonical section.
    """
    _require_valid(d)
    g, h = d.g, d.h
    nh, ng = h.dim, g.dim
    e = raw_extension_algebra(d)
    space = e.space
    if not validate_algebra(e).ok:
        raise RuntimeError("internal fault: built extension fails validation")
    incl = _map(h.space, space, 0, [{j: 1} for j in range(nh)])
    proj = _map(space, g.space, 0, [{}] * nh + [{i: 1} for i in range(ng)])
    section = _map(g.space, space, 0, [{nh + j: 1} for j in range(ng)])
    return ExtensionTriple(h, g, e, incl, proj, section)


def witness_cochain(b: GradedLinearMap) -> Cochain:
    """A degree-0 map g -> h as a 1-cochain of weight 0."""
    if b.degree != 0:
        raise ValueError("witness must be degree 0")
    return make_cochain(b.domain, b.codomain, 1, 0,
                        {(j,): b.column(j) for j in range(b.domain.dim)})


def transform_datum(d: ExtensionDatum, b: GradedLinearMap) -> ExtensionDatum:
    """Change of section by b: alpha' = alpha + ad_b, rho' = rho + delta_alpha b + [b,b]/2.

    Moving the section of a built extension by b induces exactly this move
    on the datum; validity is preserved, and H+X -> H-b(X)+X is an
    isomorphism between the two built algebras.
    """
    if b.domain != d.g.space or b.codomain != d.h.space:
        raise ValueError("witness must map g to h")
    if b.degree != 0:
        raise ValueError("witness must be degree 0")
    bc = witness_cochain(b)
    alpha = tuple(
        op + ad(d.h, b.column(i), degree=d.g.space.parities[i])
        for i, op in enumerate(d.alpha)
    )
    rho = d.rho + covariant_delta(d.g, d.alpha, bc) \
        + nr_bracket(bc, bc, d.h).scale(Fraction(1, 2))
    return ExtensionDatum(d.g, d.h, alpha, rho)


def check_equivalence_witness(d: ExtensionDatum, d2: ExtensionDatum, b: GradedLinearMap) -> bool:
    """True iff b carries d exactly onto d2."""
    if d.g != d2.g or d.h != d2.h:
        raise ValueError("data live over different algebras")
    return transform_datum(d, b) == d2


def check_split_witness(d: ExtensionDatum, b: GradedLinearMap) -> bool:
    """True iff rho = delta_alpha b - [b,b]/2, i.e. b splits the extension.

    d must pass `check_datum`, or ValueError names its first failure.  On
    success the consequences are verified: transforming by -b kills the
    curvature and the transformed connection is a homomorphism into der(h).
    """
    _require_valid(d)
    bc = witness_cochain(b)
    target = covariant_delta(d.g, d.alpha, bc) - nr_bracket(bc, bc, d.h).scale(Fraction(1, 2))
    if d.rho != target:
        return False
    flat = transform_datum(d, b.scale(-1))
    if not flat.rho.is_zero():
        raise RuntimeError("internal fault: split witness did not flatten the curvature")
    n = d.g.dim
    if any(commutator_defect(d.g, flat.alpha, i, j) for i in range(n) for j in range(n)):
        raise RuntimeError("internal fault: flattened connection is not a homomorphism")
    return True


def solve_split_abelian(d: ExtensionDatum) -> GradedLinearMap | None:
    """For abelian h the split condition is linear: solve rho = delta_alpha b.

    Returns the canonical solution, or None when the curvature class is
    nonzero and no witness exists.  d must pass `check_datum`, or
    ValueError names its first failure.
    """
    if not d.h.is_abelian():
        raise ValueError("linear split solving requires an abelian kernel")
    _require_valid(d)
    g, h = d.g, d.h
    slots = [
        (k, j)
        for k in range(h.dim)
        for j in range(g.dim)
        if h.space.parities[k] == g.space.parities[j]
    ]
    # the columns of delta_alpha on witnesses, taken into slot order (k-major)
    dmat, basis1, basis2, scale = differential_matrix(g, d.alpha, h.space, 1, 0)
    col = {key: c for c, key in enumerate(basis1)}
    cols = sparse_transpose(dmat, len(basis1))
    system = LinearSystem([cols[col[((j,), k)]] for (k, j) in slots], len(basis2))
    x = system.solve(vec_scale(scale, cochain_coordinates(d.rho, basis2)))  # dmat is scale delta
    if x is None:
        return None
    return _map(g.space, h.space, 0, [{k: c for c, (k, i) in zip(x, slots) if i == j}
                                      for j in range(g.dim)])


def pullback_extension(
    h: SuperLieAlgebra, g: SuperLieAlgebra, abar: GradedLinearMap
) -> ExtensionTriple:
    """The extension of g by a centerless h induced by abar: g -> out(h).

    The total algebra is the subalgebra {(D, X) : pi(D) = abar(X)} of
    der(h) x g with the product bracket; h embeds as H -> (ad_H, 0) and
    the projection forgets the derivation part.  The carried section is
    the canonical one through the lift coordinates of `lift_alpha_bar`, so
    the datum it induces is exactly (lifted abar, its curvature).  der(h)
    and out(h) are built once, here.
    """
    return _pullback_extension(derivations(h), g, abar)


def _pullback_extension(ds: DerivationSpace, g: SuperLieAlgebra,
                        abar: GradedLinearMap) -> ExtensionTriple:
    """`pullback_extension` on the caller's `derivations(h)`."""
    h = ds.algebra
    if center(h):
        raise ValueError("pullback construction requires a centerless kernel")
    lift_alpha_bar(ds, g, abar)  # checks abar; the section reuses its coordinates
    m, n = len(ds.basis), g.dim
    # pi(D) - abar(X) = 0, one sparse row per out(h) coordinate
    cond = sparse_transpose(map(dict, ds.proj.columns + abar.scale(-1).columns), ds.out.dim)
    kern = [dense_vec(v, m + n) for v in sparse_kernel_basis(cond, m + n)]
    prod_parities = ds.space.parities + g.space.parities

    def vec_parity(v: Vector) -> int:
        ps = {prod_parities[i] for i, a in enumerate(v) if a != 0}
        if len(ps) > 1:
            raise RuntimeError("internal fault: inhomogeneous pullback basis vector")
        return ps.pop() if ps else 0

    e_space = SuperVectorSpace(
        tuple(f"e{k}" for k in range(len(kern))),
        tuple(vec_parity(v) for v in kern),
    )
    kern_system = LinearSystem(kern, m + n)

    def to_e_coords(w: Vector) -> Vector:
        x = kern_system.solve(w)
        if x is None:
            raise RuntimeError("internal fault: vector not in the pullback subalgebra")
        return x

    # the der(h) part of each member, so a bracket is one commutator of two maps
    maps = [ds.combination(v[:m], p) for v, p in zip(kern, e_space.parities)]
    e = bracket_algebra(e_space, lambda a, b: to_e_coords(
        ds.bracket(maps[a], maps[b]) + g.bracket_vec(kern[a][m:], kern[b][m:])))

    incl_cols = [to_e_coords(ds.coordinates_of(_ad_flat(h, unit_vec(h.dim, k))) + zero_vec(n))
                 for k in range(h.dim)]
    incl = _map(h.space, e_space, 0, incl_cols)
    proj_e = _map(e_space, g.space, 0, [v[m:] for v in kern])
    sec_cols = [to_e_coords(ds.lift_coordinates(abar.column(j)) + unit_vec(n, j))
                for j in range(n)]
    section = _map(g.space, e_space, 0, sec_cols)
    triple = ExtensionTriple(h, g, e, incl, proj_e, section)
    if not validate_algebra(e).ok or not validate_triple(triple):
        raise RuntimeError("internal fault: pullback algebra failed validation")
    return triple


def same_structure(a: SuperLieAlgebra, b: SuperLieAlgebra) -> bool:
    """Equal parities and structure constants in the given basis order."""
    return a.space.parities == b.space.parities and a.structure == b.structure
