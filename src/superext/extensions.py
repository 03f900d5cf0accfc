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
    _block_sum,
    ad,
    bracket_algebra,
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
    _apply_delta,
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
    on all basis pairs; and delta_alpha rho = 0, read from `_apply_delta`.
    A failure of the last is reported on each ordered basis triple as the
    cyclic curvature sum sum_cyc (-1)^{xz} (alpha_X rho(Y,Z) - rho([X,Y], Z)),
    which is (-1)^{xz} (delta_alpha rho)(X, Y, Z).  A classification computes
    what alpha alone fixes, `_connection_checks`, once for all its data.  g
    must be valid (`validate_algebra`): a bracket not of degree 0 raises ValueError.
    """
    return _datum_report(d, _connection_checks(d.g, d.h, d.alpha))


def _connection_checks(g: SuperLieAlgebra, h: SuperLieAlgebra, alpha):
    """What `check_datum` reads of alpha alone: which operators are derivations of h,
    the commutator defects of all basis pairs of g, and delta_alpha on C^2(g; h), assembled."""
    return (tuple(is_derivation(h, op) for op in alpha),
            {(i, j): commutator_defect(g, alpha, i, j) for i, j in product(range(g.dim), repeat=2)},
            differential_matrix(g, alpha, h.space, 2, 0))


def _datum_report(d: ExtensionDatum, checks) -> DatumReport:
    """`check_datum` of d, given `_connection_checks` of its g, h and alpha."""
    (der_ok, defects, delta), names, par = checks, d.g.space.names, d.g.space.parities
    fails = [f"alpha[{names[i]}] is not a graded derivation of h"
             for i, ok in enumerate(der_ok) if not ok]
    bad = [ij for ij, defect in defects.items() if defect != _ad_flat(d.h, d.rho.evaluate(ij))]
    fails += [f"commutator defect on ({names[i]},{names[j]}) is not ad of the curvature"
              for i, j in bad]
    lam = _apply_delta(delta, d.rho)
    for i, j, k in product(range(len(names)), repeat=3) if lam.values else ():
        res = lam.evaluate((i, j, k))
        if any(res):
            res = vec_scale(Fraction(-1), res) if par[i] * par[k] else res
            fails.append(f"cyclic curvature residual on ({names[i]},{names[j]},{names[k]}) = {res}")
    return DatumReport(der_ok, not bad, lam.is_zero(), tuple(fails))


def _require_valid(d: ExtensionDatum) -> None:
    """Raise ValueError naming `check_datum`'s first failures of d, if it has any."""
    if not (rep := check_datum(d)).ok:
        raise ValueError("datum fails the extension conditions: " + "; ".join(rep.failures[:3]))


def raw_extension_algebra(d: ExtensionDatum) -> SuperLieAlgebra:
    """The bracket table on h (+) g from a datum, with no validity check.

    It is `_block_sum`'s table of h and g, names suffixed .h and .g on a
    clash, with the nonzero entries of each alpha operator and of rho added.
    For a datum failing the extension conditions the result fails the Jacobi
    identity; `build_extension` is the checked entry point.
    """
    space, table = _block_sum(d.h, d.g, (".h", ".g"))
    nh, par = d.h.dim, space.parities

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
    return make_algebra(space, {ij: dense_vec(v, space.dim) for ij, v in table.items()})


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
    bc = witness_cochain(b)  # refuses a witness of nonzero degree
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
    """True iff rho = delta_alpha b - [b,b]/2, i.e. moving the section by -b kills rho.

    delta_alpha is linear and the bracket bilinear, so the moved curvature is
    rho - (delta_alpha b - [b,b]/2) exactly.  d must pass `check_datum`, or
    ValueError names its first failure.  On a split the flattened connection
    is verified to be a homomorphism into der(h).
    """
    _require_valid(d)
    flat = transform_datum(d, b.scale(-1))
    if not flat.rho.is_zero():
        return False
    if any(commutator_defect(d.g, flat.alpha, i, j) for i, j in product(range(d.g.dim), repeat=2)):
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
    h: SuperLieAlgebra | DerivationSpace, g: SuperLieAlgebra, abar: GradedLinearMap
) -> ExtensionTriple:
    """The extension of g by a centerless h induced by abar: g -> out(h).

    The total algebra is the subalgebra {(D, X) : pi(D) = abar(X)} of
    der(h) x g with the product bracket.  Its basis is read off der(h)'s
    inner-first coordinates: (D_k, 0) for the inner members, then
    (alpha_j, e_j) for the lifts of `lift_alpha_bar`.  h embeds as
    H -> (ad_H, 0), the projection forgets the derivation part, and the
    carried section is X_j -> (alpha_j, e_j), so the datum it induces is
    exactly (lifted abar, its curvature).  The first argument is h or the
    caller's `derivations(h)`; given h, der(h) and out(h) are built once, here.
    """
    ds = h if isinstance(h, DerivationSpace) else derivations(h)
    h, c, n = ds.algebra, ds.inner_count, g.dim
    if c != h.dim:  # ad is injective exactly when Z(h) = 0
        raise ValueError("pullback construction requires a centerless kernel")
    maps = ds.basis[:c] + lift_alpha_bar(ds, g, abar)
    e_space = SuperVectorSpace(tuple(f"e{k}" for k in range(c + n)),
                               ds.space.parities[:c] + g.space.parities)
    xs = [zero_vec(n)] * c + [unit_vec(n, j) for j in range(n)]  # the g parts

    def to_e_coords(d: Vector, x: Vector) -> Vector:  # pi keeps d[c:], so e holds d[:c] + x
        if d[c:] != abar.apply(x):
            raise RuntimeError("internal fault: vector not in the pullback subalgebra")
        return d[:c] + x

    e = bracket_algebra(e_space, lambda a, b: to_e_coords(
        ds.bracket(maps[a], maps[b]), g.bracket_vec(xs[a], xs[b])))
    incl = _map(h.space, e_space, 0, [
        to_e_coords(ds.coordinates_of(_ad_flat(h, unit_vec(h.dim, k))), zero_vec(n))
        for k in range(h.dim)])
    proj_e = _map(e_space, g.space, 0, xs)
    section = _map(g.space, e_space, 0, [{c + j: 1} for j in range(n)])
    triple = ExtensionTriple(h, g, e, incl, proj_e, section)
    if not validate_algebra(e).ok or not validate_triple(triple):
        raise RuntimeError("internal fault: pullback algebra failed validation")
    return triple


def same_structure(a: SuperLieAlgebra, b: SuperLieAlgebra) -> bool:
    """Equal parities and structure constants in the given basis order."""
    return a.space.parities == b.space.parities and a.structure == b.structure
