"""The adjoint module ties der(h), Z(h) and out(h) to the cohomology layer.

For h acting on itself, by parity y: H^0(h; h) = Z(h), Z^1(h; h) = der(h),
B^1(h; h) = ad(h) and H^1(h; h) = out(h) (Chevalley-Eilenberg 1948; Fuks
1986 for superalgebras).  The two sides share only the elimination kernel:
`superlie` solves the Leibniz system and the center rows, `cohomology`
assembles the differential from its stencil and reduces by the torus where
one acts.  Reversed bases reorder a case; the sheared bases have no toral
basis element, so there cohomology eliminates the whole complex.
"""

import pytest

from superext import superlie
from superext.catalog import abelian, gl11, heis3, osp12, susy_line
from superext.cochains import differential_matrix
from superext.cohomology import cohomology_space
from superext.gvs import IncrementalSpan, SuperVectorSpace
from superext.superlie import center, derivations, direct_sum, make_algebra

from test_torus import ALGEBRAS, adjoint_module, sheared


def reversed_basis(g):
    """g in the basis f_a = e_{n-1-a}, which puts the odd elements first."""
    n = g.dim
    space = SuperVectorSpace(g.space.names[::-1], g.space.parities[::-1])
    return make_algebra(space, {(n - 1 - i, n - 1 - j): v[::-1] for i, row in enumerate(g.brackets)
                                for j, v in enumerate(row) if any(v)})


BASES = {
    **ALGEBRAS,
    "heis3": heis3,
    "susy_line": susy_line,
    "a11": lambda: abelian(1, 1),
    "osp12+susy_line": lambda: direct_sum(osp12(), susy_line()),
    "gl11+osp12": lambda: direct_sum(gl11(), osp12()),
}
REVERSED = ("osp12", "gl11", "heis3", "susy_line", "sl2+heis3", "osp12+susy_line", "kx4")
SHEARED = {"sl2": (0, 1), "osp12": (0, 1), "gl11": (2, 3), "sl2+heis3": (0, 3)}
CASES = {
    **BASES,
    **{f"reversed {name}": (lambda m=BASES[name]: reversed_basis(m())) for name in REVERSED},
    **{f"sheared {name}": (lambda m=BASES[name], ij=ij: sheared(m(), *ij))
       for name, ij in SHEARED.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_adjoint_cohomology_is_center_der_ad_and_out(name):
    h = CASES[name]()
    mod, ds = adjoint_module(h), derivations(h)
    h0, h1 = cohomology_space(h, mod, 0), cohomology_space(h, mod, 1)
    parities = [d.degree for d in ds.basis]
    for y in (0, 1):
        center_dim = sum(h.space.vector_parity(v) == y for v in center(h))
        der_dim, ad_dim = parities.count(y), parities[:ds.inner_count].count(y)
        assert h0.weight(y).dim == center_dim, (name, y)
        assert h1.weight(y).dim_cocycles == der_dim, (name, y)
        assert h1.weight(y).dim_coboundaries == ad_dim, (name, y)
        assert h1.weight(y).dim == ds.out.space.parities.count(y) == der_dim - ad_dim, (name, y)


@pytest.mark.parametrize("name", sorted(CASES))
def test_leibniz_kernel_basis_is_the_d1_kernel_basis(name):
    assert_leibniz_kernel_basis_is_the_d1_kernel_basis(CASES[name](), name)


def assert_leibniz_kernel_basis_is_the_d1_kernel_basis(h, name):
    # C^1(h; h) of weight y holds the maps of parity y; entry ((j,), k) is
    # D_kj, at slot k n + j of the Leibniz system.  With D_1's columns taken
    # into slot order, both RREF kernel bases are the same vectors
    n, mod = h.dim, adjoint_module(h)
    for y in (0, 1):
        rows, basis1, _basis2, _scale = differential_matrix(h, mod.action, h.space, 1, y)
        slot = [k * n + tup[0] for tup, k in basis1]
        order = sorted(range(len(basis1)), key=slot.__getitem__)
        column = {c: p for p, c in enumerate(order)}
        kernel = IncrementalSpan({column[c]: x for c, x in r.items()} for r in rows).kernel(
            len(basis1))
        got = [{slot[order[p]]: x for p, x in v.items()} for v in kernel]
        want = [d._flat_nonzeros() for d in superlie._derivation_basis_of_parity(h, y)]
        assert got == want, (name, y)
