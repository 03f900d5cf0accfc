"""Graded Chevalley cohomology and the obstruction/classification pipeline.

For a graded module (M, action) over g the covariant derivative of
`cochains` squares to zero and computes cohomology by exact kernel/image
linear algebra, split by weight, on the cochains of torus weight 0 (the
other weights are exact).  On top of that sit, for an outer action
g -> out(h) lifted by `superlie.lift_alpha_bar`, the canonical curvature
solving ad_H = commutator defect, the degree-3 obstruction cocycle valued
in the center, and the classification of extensions by the weight-0 part
of H^2, whose emitted data pass `check_datum`'s conditions on one shared
delta_alpha, no algebra built.  Each takes the caller's `derivations(h)`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import add

from .gvs import (
    GradedLinearMap,
    IncrementalSpan,
    LinearSystem,
    Record,
    SuperVectorSpace,
    Vector,
    _map,
    is_zero_vec,
    sparse_transpose,
    vec_add,
    vec_scale,
    zero_vec,
)
from .superlie import (
    DerivationSpace,
    SuperLieAlgebra,
    center,
    commutator_defect,
    derivations,
    lift_alpha_bar,
)
from .cochains import (
    Cochain,
    TRIVIAL_LINE,
    _check_operators,
    canonical_tuples,
    cochain_coordinates,
    cochain_from_coordinates,
    covariant_delta,
    differential_matrix,
    make_cochain,
    space_basis,
    zero_ops,
)
from .extensions import ExtensionDatum, _connection_checks, _datum_report


class GModule(Record):
    """A graded g-module: a space with one action operator per g generator.

    The assignment is degree 0 (operator parity = generator parity) and a
    homomorphism into the graded commutator algebra.  `gmodule` verifies
    both; the bare constructor checks nothing.
    """

    g: SuperLieAlgebra
    space: SuperVectorSpace
    action: tuple[GradedLinearMap, ...]


def gmodule(g: SuperLieAlgebra, space: SuperVectorSpace,
            action: tuple[GradedLinearMap, ...]) -> GModule:
    _check_operators(g.space, space, action)
    for i in range(g.dim):
        for j in range(g.dim):
            if commutator_defect(g, action, i, j):
                raise ValueError(
                    f"action is not a homomorphism on the pair "
                    f"({g.space.names[i]},{g.space.names[j]})"
                )
    return GModule(g, space, action)


def trivial_module(g: SuperLieAlgebra) -> GModule:
    return gmodule(g, TRIVIAL_LINE, zero_ops(g.space, TRIVIAL_LINE))


def module_delta(mod: GModule, phi: Cochain) -> Cochain:
    """The Chevalley differential of the module; squares to zero."""
    return covariant_delta(mod.g, mod.action, phi)


def center_module(h: SuperLieAlgebra, g: SuperLieAlgebra,
                  alpha: tuple[GradedLinearMap, ...]) -> tuple[GModule, GradedLinearMap]:
    """Z(h) as a g-module through a lifted outer action; returns (module, inclusion).

    The inclusion maps Z(h), with basis names z0, z1, ..., into h.
    `alpha` holds one derivation of h per g basis element, e.g. the
    operators of `lift_alpha_bar`; each is restricted to the center.
    Inner derivations kill the center, so the action does not depend on
    the lift, only on the outer action it projects to; the homomorphism
    property is verified by `gmodule`.  Nothing is cached across calls.
    """
    basis = center(h)
    zspace = SuperVectorSpace(tuple(f"z{k}" for k in range(len(basis))),
                              tuple(map(h.space.vector_parity, basis)))
    incl = _map(zspace, h.space, 0, basis)
    incl_system = LinearSystem(map(dict, incl.columns), h.dim)
    ops = []
    for op in alpha:
        cols = []
        for col in op.compose(incl).columns:
            z = incl_system.solve(dict(col))
            if z is None:
                raise RuntimeError("internal fault: lifted derivation leaves the center")
            cols.append(z)
        ops.append(_map(incl.domain, incl.domain, op.degree, cols))
    return gmodule(g, incl.domain, tuple(ops)), incl


class WeightReport(Record):
    """Cohomology of one weight component at one arity.

    The representatives are sparse coordinate vectors, {position in
    `basis`: nonzero Fraction} dicts over the whole `space_basis`, which
    is listed where it is read; their cochains are built on first read.
    The dims count every torus weight.
    """

    module: GModule
    arity: int
    weight: int
    dim_cocycles: int
    dim_coboundaries: int
    representative_coords: tuple[dict[int, Fraction], ...]

    @property
    def dim(self) -> int:
        return self.dim_cocycles - self.dim_coboundaries

    @property
    def basis(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(space_basis(self.module.g.space, self.module.space, self.arity, self.weight))

    @cached_property
    def representatives(self) -> tuple[Cochain, ...]:
        return tuple(cochain_from_coordinates(self.module.g.space, self.module.space, self.arity,
                                              self.weight, self.basis, v)
                     for v in self.representative_coords)


class CohomologyReport(Record):
    arity: int
    weights: tuple[WeightReport, WeightReport]

    def weight(self, y: int) -> WeightReport:
        return self.weights[y % 2]

    @property
    def total_dim(self) -> int:
        return sum(w.dim for w in self.weights)


def _check_squares_to_zero(outer, inner, n: int) -> None:
    """Raise an internal fault unless outer * inner = 0 for sparse integer rows."""
    for row in outer:
        acc: dict[int, int] = {}
        for j, a in row.items():
            for k, b in inner[j].items():
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            raise RuntimeError(
                f"internal fault: the differential does not square to zero at degree {n}"
            )


def _torus(mod: GModule) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The toral basis elements of g on M, as integer weights (lambda, mu).

    e_k is toral when it is even, [e_k, e_j] = lambda_j e_j for every j,
    and it acts on M diagonally, by mu_m.  Elements with all eigenvalues
    0 are skipped; each element's eigenvalues are cleared of denominators.
    """
    g, torus = mod.g, []
    den, table = g.structure
    for k, brackets in enumerate(table):
        op = mod.action[k].columns
        if g.space.parities[k] or any(len(t) > 1 or (t and t[0][0] != j)
                                      for diag in (brackets, op) for j, t in enumerate(diag)):
            continue
        eig = [Fraction(t[0][1], den) if t else 0 for t in brackets]
        eig += [t[0][1] if t else 0 for t in op]
        if any(eig):
            d = lcm(*(Fraction(x).denominator for x in eig))
            eig = [int(x * d) for x in eig]
            torus.append((tuple(eig[:g.dim]), tuple(eig[g.dim:])))
    return tuple(torus)


def _weight_counts(mod: GModule, torus, n: int) -> list[list[dict[tuple[int, ...], int]]]:
    """dim C^{k,y} as {torus weight: dim}, indexed [y][k] for k = 0..n, without listing C^k.

    The weight of (tuple, m) is mu(m) minus the lambdas of the tuple.
    Tuples are counted by (arity, odd entries mod 2, weight), one basis
    element at a time: an even one enters at most once, an odd one up to n.
    """
    tuples = {(0, 0, (0,) * len(torus)): 1}
    for j, p in enumerate(mod.g.space.parities):
        steps = [(r, r * p, tuple(-r * lam[j] for lam, _mu in torus))
                 for r in range(1, (n if p else 1) + 1)]
        for (k, x, w), c in list(tuples.items()):
            for r, dx, dw in steps[:n - k]:
                key = (k + r, (x + dx) % 2, tuple(map(add, w, dw)))
                tuples[key] = tuples.get(key, 0) + c
    counts: list[list[dict[tuple[int, ...], int]]] = [[{} for _ in range(n + 1)] for _y in (0, 1)]
    for (k, x, w), c in tuples.items():
        for m, pm in enumerate(mod.space.parities):  # a value in M_{y + x}
            by_weight = counts[(pm + x) % 2][k]
            key = tuple(a + mu[m] for a, (_lam, mu) in zip(w, torus))
            by_weight[key] = by_weight.get(key, 0) + c
    return counts


def _nonzero_weights(mod: GModule, torus, n: int) -> list[tuple[int, int]]:
    """[(dim B^{n,y} over the nonzero torus weights, dim C^{n,y} of weight 0) for y = 0, 1].

    The complexes of nonzero weight are exact: dim B^n_w = dim Z^n_w = dim C^{n-1}_w - ...
    The counts are checked against the closed form, and 0 <= dim B^n_w <= dim C^n_w.
    With the empty torus every entry has weight 0, and the counts are the closed forms.
    """
    zero, out = (0,) * len(torus), []
    for y, counts in enumerate(_weight_counts(mod, torus, n)):
        for k, by_weight in enumerate(counts):
            if sum(by_weight.values()) != _closed_form_dim(mod, k, y):
                raise RuntimeError(f"internal fault: the torus weights of C^{k} of weight {y} "
                                   "do not sum to its closed form")
        exact = 0
        for w in set().union(*counts[:n]) - {zero}:
            b = sum((-1) ** (n - 1 - k) * counts[k].get(w, 0) for k in range(n))
            if not 0 <= b <= counts[n].get(w, 0):
                raise RuntimeError(f"internal fault: dim B^{n} of torus weight {w} is not "
                                   f"between 0 and dim C^{n}")
            exact += b
        out.append((exact, counts[n].get(zero, 0)))
    return out


def _closed_form_dim(mod: GModule, n: int, y: int) -> int:
    """dim C^{n,y}, g of dimension (p|q): j odd arguments give C(p,n-j) C(q+j-1,j) M_{y+j}."""
    p, q, dim_m = mod.g.space.dim_even, mod.g.space.dim_odd, (mod.space.dim_even, mod.space.dim_odd)
    return sum(comb(p, n - j) * (comb(q + j - 1, j) if j else 1) * dim_m[(y + j) % 2]
               for j in range(n + 1))


def cohomology_space(g: SuperLieAlgebra, mod: GModule, n: int) -> CohomologyReport:
    """Cocycles, coboundaries and H^n representatives, split by weight.

    Only the block of torus weight 0 (see `_torus`) is assembled and
    eliminated: by Cartan's formula L_h = d i_h + i_h d the complex of a
    nonzero weight is exact, and its dimensions are counted.
    Representatives are the cocycle-basis vectors that enlarge the span of
    the coboundaries, picked greedily in kernel-basis order; leftmost-pivot
    bases split by weight, so they are those of the whole complex.  The
    complex checks itself (D_n D_{n-1} = 0, dim C^n and the weight counts
    by their closed form, B^n in Z^n), or RuntimeError reports an internal
    fault.
    """
    if mod.g != g:
        raise ValueError("module is over a different algebra")
    if n < 0:
        raise ValueError("arity must be >= 0")
    torus = _torus(mod)
    return CohomologyReport(n, tuple(_weight_cohomology(mod, n, y, torus, c)[0]
                                     for y, c in enumerate(_nonzero_weights(mod, torus, n))))


def _weight_cohomology(mod: GModule, n: int, y: int, torus, counted=None):
    """The weight-y part of `cohomology_space` on the weight-0 block of `torus`.

    `counted` is `_nonzero_weights`' (dim B^n over the nonzero weights,
    dim C^n of weight 0).  An empty block has Z^n = 0 and D_{n-1} of rank 0
    into it, so its report is read off the counts, and nothing is listed,
    assembled or eliminated.  The default, for the empty torus, counts the
    whole complex by its closed form and never skips.  Returns (report,
    previous), previous being `differential_matrix`'s D_{n-1} on the block
    (None for n = 0 or a skipped block) for a caller that needs it too.  Its
    integer rows are eliminated as they are: a scale changes no kernel or image.
    """
    exact, inside = counted or (0, _closed_form_dim(mod, n, y))
    if counted and not inside:
        return WeightReport(mod, n, y, exact, exact, ()), None

    def weight0(entry):  # mu(m) is the sum of lambda over the tuple, for each toral element
        tup, m = entry
        for lam, mu in torus:
            if mu[m] != sum(map(lam.__getitem__, tup)):
                return False
        return True

    # C^{n-1}, C^n and C^{n+1} are each listed once, and only where the block is not empty
    full = {k: space_basis(mod.g.space, mod.space, k, y) for k in range(max(n - 1, 0), n + 2)}
    block = {k: [entry for entry in entries if weight0(entry)] for k, entries in full.items()}

    def assemble(k):  # integer D_k on the block, with its scale
        return differential_matrix(mod.g, mod.action, mod.space, k, y, (block[k], block[k + 1]))

    dmat, src, _dst, _scale = assemble(n)
    if len(src) != inside:  # the counts of all weights sum to the closed form
        raise RuntimeError(f"internal fault: dim C^{n} of weight {y} is not its closed form: "
                           f"the weight-0 block has {len(src)} entries, not the {inside} counted")
    previous = None if n == 0 else assemble(n - 1)
    if previous:
        _check_squares_to_zero(dmat, previous[0], n)
    # the columns of D_{n-1}, whose rank is dim B^n on the block, then the cocycles
    span = IncrementalSpan(sparse_transpose(previous[0], len(previous[1])) if previous else ())
    dim_coboundaries = span.rank
    cocycles = IncrementalSpan(dmat).kernel(len(src))
    reps = [v for v in cocycles if span.add(v)]
    if span.rank != len(cocycles):
        raise RuntimeError(f"internal fault: a coboundary of degree {n} is not a cocycle")
    index = {entry: i for i, entry in enumerate(full[n])}  # block column -> whole-basis position
    reps = tuple({index[src[c]]: x for c, x in v.items()} for v in reps)
    return WeightReport(mod, n, y, len(cocycles) + exact, dim_coboundaries + exact, reps), previous


def rho_from_lift(ds: DerivationSpace, g: SuperLieAlgebra,
                  alpha: tuple[GradedLinearMap, ...]) -> Cochain:
    """The canonical curvature of a lift: solve ad_H = commutator defect.

    `ds` is the caller's `derivations(h)`.  The defect
    [alpha_X, alpha_Y] - alpha_[X,Y] must be an inner derivation for every
    pair (it is exactly when the projected lift is a homomorphism): its
    der(h) coordinates vanish on the complement.  H is then the same
    combination of `inner_preimages`, each the canonical solution of its
    ad system, which zeroes the free (central) coordinates and pins rho down.
    """
    table = {}
    for (i, j) in canonical_tuples(g.space, 2):
        x = ds.coordinates_of(commutator_defect(g, alpha, i, j))
        if x is None or any(x[ds.inner_count:]):
            raise ValueError(
                f"commutator defect on ({g.space.names[i]},{g.space.names[j]}) is not "
                "inner: the projected lift is not a homomorphism"
            )
        v = zero_vec(ds.algebra.dim)
        for c, pre in zip(x, ds.inner_preimages):
            if c:
                v = vec_add(v, vec_scale(c, pre))
        table[(i, j)] = v
    return make_cochain(g.space, ds.algebra.space, 2, 0, table)


class ObstructionReport(Record):
    """The degree-3 obstruction of an outer action, with its trivialization.

    `lam` is the center-valued cocycle delta_alpha(rho); `class_coords`
    are its coordinates over the chosen H^3 weight-0 representatives.
    When the class vanishes, `mu` satisfies delta mu = lam, so
    (alpha, rho - mu) is valid extension data.
    """

    alpha: tuple[GradedLinearMap, ...]
    rho: Cochain
    lam: Cochain
    module: GModule
    center_incl: GradedLinearMap
    class_coords: Vector
    vanishes: bool
    mu: Cochain | None


def push_center_cochain(phi: Cochain, incl: GradedLinearMap) -> Cochain:
    """A center-valued cochain as an h-valued one through the inclusion."""
    return make_cochain(
        phi.source, incl.codomain, phi.arity, phi.weight,
        {tup: incl.apply(val) for tup, val in phi.values},
    )


def obstruction_class(ds: DerivationSpace, g: SuperLieAlgebra,
                      abar: GradedLinearMap) -> ObstructionReport:
    """Lift, curvature, and the obstruction cocycle of an outer action.

    `ds` is the caller's `derivations(h)`.  The pipeline asserts the
    two facts the construction guarantees: the cocycle is valued in the
    center and is closed for the module differential.  Its class in
    weight-0 H^3 decides whether any extension induces abar.
    """
    h = ds.algebra
    alpha = lift_alpha_bar(ds, g, abar)
    mod, incl = center_module(h, g, alpha)
    rho = rho_from_lift(ds, g, alpha)
    lam_h = covariant_delta(g, alpha, rho)
    incl_system = LinearSystem(map(incl.column, range(incl.domain.dim)), h.dim)
    table = {}
    for tup, val in lam_h.values:
        z = incl_system.solve(val)
        if z is None:
            raise RuntimeError("internal fault: obstruction cocycle not valued in the center")
        table[tup] = z
    lam = make_cochain(g.space, mod.space, 3, 0, table)

    # only weight 0 matters: the columns of its D_2, then the H^3
    # representatives, span Z^3, so one solve gives the class, the primitive
    # mu when the class vanishes, and no solution when lam is not closed
    h3, (d2, basis2, basis3, d2_scale) = _weight_cohomology(mod, 3, 0, ())
    cols = sparse_transpose(d2, len(basis2)) + list(h3.representative_coords)
    x = LinearSystem(cols, len(basis3)).solve(cochain_coordinates(lam, basis3))
    if x is None:
        raise RuntimeError("internal fault: obstruction cocycle is not closed")
    class_coords = x[len(basis2):]
    vanishes = is_zero_vec(class_coords)
    mu = None
    if vanishes:  # d2 is d2_scale D_2
        mu = cochain_from_coordinates(g.space, mod.space, 2, 0, basis2,
                                      vec_scale(d2_scale, x[:len(basis2)]))
    return ObstructionReport(alpha, rho, lam, mod, incl, class_coords, vanishes, mu)


class ClassificationReport(Record):
    """All extensions inducing a fixed outer action, up to equivalence.

    When the obstruction vanishes, `base` is the chosen base point
    (alpha, rho - mu); the classes are the torsor base + nu over the
    weight-0 H^2 representatives.  For a centerless kernel the list has
    exactly one entry (the action alone determines the extension); for an
    abelian kernel the classes are the pairs (action, H^2 class).
    """

    obstruction: ObstructionReport
    h2: CohomologyReport | None
    base: ExtensionDatum | None
    representatives: tuple[Cochain, ...]
    data: tuple[ExtensionDatum, ...]
    centerless: bool
    abelian_kernel: bool


def classify_extensions(h: SuperLieAlgebra | DerivationSpace, g: SuperLieAlgebra,
                        abar: GradedLinearMap) -> ClassificationReport:
    """All extensions inducing abar: g -> out(h), from h or the caller's `derivations(h)`."""
    ds = h if isinstance(h, DerivationSpace) else derivations(h)
    h = ds.algebra
    obs = obstruction_class(ds, g, abar)
    centerless = obs.center_incl.domain.dim == 0
    abelian_kernel = h.is_abelian()
    if not obs.vanishes:
        return ClassificationReport(obs, None, None, (), (), centerless, abelian_kernel)
    mu_h = push_center_cochain(obs.mu, obs.center_incl)
    base = ExtensionDatum(g, h, obs.alpha, obs.rho - mu_h)
    h2 = cohomology_space(g, obs.module, 2)
    reps = h2.weight(0).representatives
    data = [base]
    for nu in reps:
        nu_h = push_center_cochain(nu, obs.center_incl)
        data.append(ExtensionDatum(g, h, obs.alpha, base.rho + nu_h))
    checks = _connection_checks(g, h, obs.alpha)
    if not all(_datum_report(d, checks).ok for d in data):
        raise RuntimeError("internal fault: emitted datum fails the extension conditions")
    return ClassificationReport(obs, h2, base, tuple(reps), tuple(data),
                                centerless, abelian_kernel)
