"""A random corpus grown by central extensions, checked against the oracles only.

Each draw starts from A(p|q), sl(2) + A(p|q) or osp(1|2) + A(p|q) and adds
central elements one at a time (Skjelbred and Sund, C. R. Acad. Sci. Paris
286, 1978): e = g + k z with z of parity y and

    [x, x']_e = [x, x']_g + omega(x, x') z,

which satisfies Jacobi exactly when omega lies in Z^2(g; k) of weight y.
omega is a random integer combination of the cocycle basis that the oracles
compute (`delta_by_terms` through `delta_matrix_by_columns`, then
`dense_kernel_basis`), never the library's.  Every grown algebra, and every
check on it, is compared with `tests/oracles.py`.
"""

import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from superext.catalog import abelian, osp12, sl2
from superext.cochains import (
    TRIVIAL_LINE,
    cochain_coordinates,
    cochain_from_coordinates,
    space_basis,
)
from superext.cohomology import (
    center_module,
    cohomology_space,
    obstruction_class,
    rho_from_lift,
    trivial_module,
)
from superext.gvs import GradedLinearMap, SuperVectorSpace, linear_map
from superext.superlie import center, derivations, direct_sum, make_algebra, validate_algebra

from oracles import (
    delta_by_terms,
    delta_matrix_by_columns,
    dense_ad,
    dense_derivation_basis_of_parity,
    dense_is_homomorphism,
    dense_kernel_basis,
    dense_rref,
    dense_solve,
    dense_validate_algebra,
    extension_exists,
    random_homogeneous_vector,
    random_witness,
)
from test_adjoint import assert_leibniz_kernel_basis_is_the_d1_kernel_basis
from test_torus import adjoint_module

SEEDS = {
    "A": abelian,
    "sl2+A": lambda p, q: direct_sum(sl2(), abelian(p, q)) if p + q else sl2(),
    "osp12+A": lambda p, q: direct_sum(osp12(), abelian(p, q)) if p + q else osp12(),
}
MAX_DIM = 7


def oracle_cocycles(g, y):
    """The weight-y basis of C^2(g; k), the oracle's Z^2 basis on it, and dim B^2."""
    basis2 = space_basis(g.space, TRIVIAL_LINE, 2, y)
    d2 = delta_matrix_by_columns(g, None, TRIVIAL_LINE, 2, y)
    d1 = delta_matrix_by_columns(g, None, TRIVIAL_LINE, 1, y)
    return basis2, dense_kernel_basis(d2, len(basis2)), len(dense_rref(d1)[1]) if d1 else 0


def central_extension(g, y, omega):
    """g + k z, z of parity y, with [x, x'] gaining omega(x, x') z."""
    n = g.dim
    space = SuperVectorSpace(g.space.names + (f"z{n}",), g.space.parities + (y,))
    table = {}
    for i in range(n):
        for j in range(n):
            v = g.brackets[i][j] + omega.evaluate((i, j))
            if any(v):
                table[(i, j)] = v
    return make_algebra(space, table)


def extend(g, y, coeffs):
    """g + k z, z of parity y, by omega = sum of coeffs times the oracle's Z^2 basis."""
    basis2, z2, _b2 = oracle_cocycles(g, y)
    coords = [sum((F(c) * v[k] for c, v in zip(coeffs, z2)), F(0)) for k in range(len(basis2))]
    return central_extension(g, y, cochain_from_coordinates(g.space, TRIVIAL_LINE, 2, y, basis2,
                                                            coords))


def grow(kind, p, q, steps):
    """The chain of algebras from the seed, one per step (y, coefficients on Z^2)."""
    chain = [SEEDS[kind](p, q)]
    for y, coeffs in steps:
        chain.append(extend(chain[-1], y, coeffs))
    return chain


@st.composite
def growths(draw):
    kind = draw(st.sampled_from(sorted(SEEDS)))
    room = MAX_DIM - 1 - SEEDS[kind](0, 0).dim  # at least one step
    p = draw(st.integers(1 if kind == "A" else 0, min(2, room)))
    q = draw(st.integers(0, min(2, room - p)))
    g, steps = SEEDS[kind](p, q), []
    for _ in range(draw(st.integers(1, MAX_DIM - g.dim))):
        y = draw(st.integers(0, 1))
        n = len(oracle_cocycles(g, y)[1])
        steps.append((y, tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))))
        g = extend(g, y, steps[-1][1])
    return kind, p, q, tuple(steps), draw(st.integers(0, 2 ** 16))


def random_homomorphism(out, rng):
    """A degree-0 map from A(1|1), A(0|1) or A(1|0) into out, the first that the oracle
    accepts as a homomorphism; A(1|0) -> out always is one."""
    u = random_homogeneous_vector(out.space, 0, rng)
    v = random_homogeneous_vector(out.space, 1, rng)
    for g, cols in ((abelian(1, 1, "g"), (u, v)), (abelian(0, 1, "g"), (v,)),
                    (abelian(1, 0, "g"), (u,))):
        abar = linear_map(g.space, out.space, 0, tuple(zip(*cols)))
        if dense_is_homomorphism(abar, g, out):
            return g, abar
    raise AssertionError("A(1|0) -> out(h) is not a homomorphism")


def oracle_class_coordinates(ds, g, alpha):
    """The coordinates of [delta_alpha rho] over the library's H^3 representatives,
    rho the curvature of the lift alpha, by `delta_by_terms` and `dense_solve`."""
    h = ds.algebra
    mod, incl = center_module(h, g, alpha)
    lam_h = delta_by_terms(g, alpha, rho_from_lift(ds, g, alpha))
    basis3 = space_basis(g.space, mod.space, 3, 0)
    lam = cochain_coordinates(lam_h, space_basis(g.space, h.space, 3, 0))
    # lam_h is valued in the center: its coordinates over incl's columns
    by_tuple = {}
    for (tup, m), x in zip(space_basis(g.space, h.space, 3, 0), lam):
        by_tuple.setdefault(tup, [F(0)] * h.dim)[m] = x
    z = {tup: dense_solve(incl.matrix, val, mod.space.dim) for tup, val in by_tuple.items()}
    assert all(c is not None for c in z.values())
    rhs = [z[tup][m] for tup, m in basis3]
    reps = [cochain_coordinates(r, basis3)
            for r in cohomology_space(g, mod, 3).weight(0).representatives]
    d2 = delta_matrix_by_columns(g, mod.action, mod.space, 2, 0)
    ncols = len(d2[0]) if d2 else 0
    a = [tuple(d2[r]) + tuple(rep[r] for rep in reps) for r in range(len(basis3))]
    x = dense_solve(a, rhs, ncols + len(reps))
    assert x is not None
    return tuple(x[ncols:])


def check_chain(chain, steps, rng):
    for g, e, (y, _coeffs) in zip(chain, chain[1:], steps):
        # Jacobi holds by both validators, and weight-y H^2(g; k) is the oracle's Z^2 / B^2
        assert dense_validate_algebra(e).ok and validate_algebra(e).ok
        _basis2, z2, b2 = oracle_cocycles(g, y)
        assert cohomology_space(g, trivial_module(g), 2).weight(y).dim == len(z2) - b2
    e = chain[-1]
    ds = derivations(e)
    parities = [d.degree for d in ds.basis]
    mod = adjoint_module(e)
    h0, h1 = cohomology_space(e, mod, 0), cohomology_space(e, mod, 1)
    for y in (0, 1):
        # der(e) by parity against the dense Leibniz system, and the adjoint
        # identities H^0 = Z(e), Z^1 = der(e), B^1 = ad(e), H^1 = out(e)
        der_dim, ad_dim = parities.count(y), parities[:ds.inner_count].count(y)
        assert der_dim == len(dense_derivation_basis_of_parity(e, y))
        assert h0.weight(y).dim == sum(e.space.vector_parity(v) == y for v in center(e))
        assert (h1.weight(y).dim_cocycles, h1.weight(y).dim_coboundaries) == (der_dim, ad_dim)
        assert h1.weight(y).dim == ds.out.space.parities.count(y)
    assert_leibniz_kernel_basis_is_the_d1_kernel_basis(e, e.space.names)
    # an extension inducing abar exists exactly when the obstruction vanishes
    a11, out = abelian(1, 1, "g"), ds.out
    actions = [(a11, GradedLinearMap.zero(a11.space, out.space)), random_homomorphism(out, rng)]
    if out.dim <= 4:  # C^2(out(e); e) has dim out(e)^2 dim e unknowns for the dense oracle
        actions.append((out, GradedLinearMap.identity_map(out.space)))
    reports = [obstruction_class(ds, g, abar) for g, abar in actions]
    for (g, abar), obs in zip(actions, reports):
        assert extension_exists(ds, g, abar)[0] == obs.vanishes
    # the class does not depend on the lift: alpha + ad v gives the same
    # coordinates; from A(1|1) the zero action has H^3(g; Z(e)) != 0 whenever
    # Z(e) != 0, so its moved lift has a curvature that must come out exact
    for (g, _abar), obs in zip(actions[:2], reports):
        v = random_witness(g, e, rng)
        moved = tuple(op + dense_ad(e, v.column(i), g.space.parities[i])
                      for i, op in enumerate(obs.alpha))
        assert oracle_class_coordinates(ds, g, obs.alpha) == obs.class_coords
        assert oracle_class_coordinates(ds, g, moved) == obs.class_coords

# explicit draws, as the h_T family keeps its own: heis3 from A(2|0) by a0^a1;
# the odd Heisenberg algebra [a0, a1] = z2 (z2 odd), then [a0, z2] = z3 and a
# weight-0 step; the susy line [a0, a0] = z1 plus an odd central line, whose
# weight-1 Z^2 is empty; and osp(1|2) + A(0|1) by the odd square into the
# susy line, at the dimension bound
@example(("A", 2, 0, ((0, (1,)),), 0))
@example(("A", 1, 1, ((1, (1,)), (1, (0, 1)), (0, (1,))), 1))
@example(("A", 0, 1, ((0, (1,)), (1, ())), 2))
@example(("osp12+A", 0, 1, ((0, (0, 0, 0, 1)),), 3))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(growths())
def test_central_extension_corpus_agrees_with_the_oracles(drawn):
    kind, p, q, steps, seed = drawn
    chain = grow(kind, p, q, steps)
    assert chain[-1].dim == chain[0].dim + len(steps) <= MAX_DIM
    check_chain(chain, steps, random.Random(seed))
