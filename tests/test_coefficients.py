"""Cohomology with coefficients against theorems, on modules built from closed forms.

The modules come from `tests/oracles.py`: sl(2)'s V_n in the weight basis,
the (1|2) module of osp(1|2), direct sums, outer tensor products, and each
again in the basis v_i + v_j, where no basis element acts diagonally, so the
torus reduction is skipped.  The expected dimensions are theorems, not
library output:

- Whitehead (Chevalley-Eilenberg, Trans. AMS 63, 1948; Hochschild-Serre,
  Ann. Math. 57, 1953): for semisimple g and M = V (+) C^k, V a sum of
  nontrivial irreducibles, H^n(g; M) = k H^n(g; C).  osp(1|2) too: its
  finite-dimensional modules are completely reducible (Djokovic-Hochschild,
  Illinois J. Math. 20, 1976) and its Casimir acts on a nontrivial
  irreducible by a nonzero scalar; H^*(osp(1|2); C) = H^*(sl(2); C) (Fuks 1986).
- Poincare duality for a unimodular even g of dimension d: dim H^k = dim H^{d-k}
  (Hazewinkel, Math. USSR Sb. 12, 1970).
- Kunneth: H(g1 (+) g2; M1 (x) M2) = H(g1; M1) (x) H(g2; M2).
- Hence H^2(g; M) = 0 for g = sl(2) or osp(1|2), and a classification over
  them emits at most one datum.
"""

from fractions import Fraction

import pytest

from superext.catalog import abelian, gl11, heis3, osp12, sl2
from superext.cohomology import _torus, classify_extensions, cohomology_space, gmodule
from superext.gvs import GradedLinearMap, linear_map
from superext.superlie import abelian_algebra, derivations, direct_sum

from oracles import (module_sum, osp12_standard, outer_tensor, rebased, sl2_irrep,
                     trivial_lines)

F = Fraction

SL2_TRIVIAL = (1, 0, 0, 1)  # H^*(sl(2); C) = Lambda(x_3)
SL2_SL2_TRIVIAL = (1, 0, 0, 2, 0, 0, 1)
OSP12_TRIVIAL = (1, 0, 0, 1, 0, 0)


def dims(g, part, top):
    """dim H^n(g; M) by weight, n = 0..top, with the number of toral elements used."""
    mod = gmodule(g, *part)
    return ([tuple(cohomology_space(g, mod, n).weight(y).dim for y in (0, 1))
             for n in range(top + 1)], len(_torus(mod)))


def sl2_sl2_module(a, b, k):
    """V_a (x) C (+) C (x) V_b (+) C^k over sl(2) (+) sl(2)."""
    s, line = sl2(), trivial_lines(sl2(), 1)
    return module_sum(outer_tensor(sl2_irrep(a), line), outer_tensor(line, sl2_irrep(b)),
                      trivial_lines(direct_sum(s, s), k))


WHITEHEAD = {
    # name: (g, module, the pair (i, j) mixed by the basis change, k, H^*(g; C))
    "sl2 V1": (sl2, lambda: sl2_irrep(1), (0, 1), 0, SL2_TRIVIAL),
    "sl2 V4": (sl2, lambda: sl2_irrep(4), (0, 1), 0, SL2_TRIVIAL),
    "sl2 V3+C": (sl2, lambda: module_sum(sl2_irrep(3), trivial_lines(sl2(), 1)), (0, 1), 1,
                 SL2_TRIVIAL),
    "sl2 C2+V2": (sl2, lambda: module_sum(trivial_lines(sl2(), 2), sl2_irrep(2)), (2, 3), 2,
                  SL2_TRIVIAL),
    "sl2 V1+V2+C": (sl2, lambda: module_sum(sl2_irrep(1), sl2_irrep(2), trivial_lines(sl2(), 1)),
                    (0, 1), 1, SL2_TRIVIAL),
    # m0 = v_0 (x) 1 has H-weights (1, 0) and m2 = 1 (x) v_0 has (0, 2):
    # mixing them leaves neither H diagonal
    "sl2+sl2 V1xC+CxV2+C2": (lambda: direct_sum(sl2(), sl2()), lambda: sl2_sl2_module(1, 2, 2),
                             (0, 2), 2, SL2_SL2_TRIVIAL),
    "osp12 (1|2)": (osp12, osp12_standard, (1, 2), 0, OSP12_TRIVIAL),
    "osp12 (1|2)+C": (osp12, lambda: module_sum(osp12_standard(), trivial_lines(osp12(), 1)),
                      (1, 2), 1, OSP12_TRIVIAL),
}


@pytest.mark.parametrize("basis", ["weight", "rebased"])
@pytest.mark.parametrize("name", sorted(WHITEHEAD))
def test_whitehead_nontrivial_summands_add_nothing(name, basis):
    # H^n(g; V (+) C^k) = k H^n(g; C), in the weight basis (torus reduction)
    # and after a unipotent change of basis (whole complex, no torus)
    make_g, make_module, (i, j), k, trivial = WHITEHEAD[name]
    g, part = make_g(), make_module()
    if basis == "rebased":
        part = rebased(part, i, j)
    got, toral = dims(g, part, len(trivial) - 1)
    assert got == [(k * t, 0) for t in trivial]
    assert (toral > 0) == (basis == "weight")


@pytest.mark.parametrize("g, want", [
    (sl2, (1, 0, 0, 1)),
    (heis3, (1, 2, 2, 1)),
    (lambda: direct_sum(sl2(), heis3()), (1, 2, 2, 2, 2, 2, 1)),
    (lambda: direct_sum(heis3(), heis3()), (1, 4, 8, 10, 8, 4, 1)),
], ids=["sl2", "heis3", "sl2+heis3", "heis3+heis3"])
def test_poincare_duality_for_unimodular_even_algebras(g, want):
    g = g()
    got, _ = dims(g, trivial_lines(g, 1), g.dim)
    assert [d for d, _odd in got] == list(want) == list(reversed(want))
    assert all(odd == 0 for _d, odd in got)


def heis3_nilpotent():
    """C^2 over heis3 = <P, Q, Z>: P acts by E_01, Q and Z by 0."""
    n = [[F(0), F(1)], [F(0), F(0)]]
    zero = [[F(0)] * 2 for _ in range(2)]
    space, _ = trivial_lines(heis3(), 2)
    return space, tuple(linear_map(space, space, 0, m) for m in (n, zero, zero))


def convolve(a, b):
    return [sum(a[p] * b[n - p] for p in range(n + 1)) for n in range(len(a))]


@pytest.mark.parametrize("factors", [
    ((sl2, lambda: module_sum(trivial_lines(sl2(), 1), sl2_irrep(2))), (heis3, heis3_nilpotent)),
    ((heis3, heis3_nilpotent), (heis3, heis3_nilpotent)),
    ((sl2, lambda: sl2_irrep(1)), (heis3, lambda: trivial_lines(heis3(), 1))),
], ids=["sl2(C+V2) x heis3(N)", "heis3(N) x heis3(N)", "sl2(V1) x heis3(C)"])
def test_kunneth_with_coefficients(factors):
    (g1, m1), (g2, m2) = ((g(), m()) for g, m in factors)
    top = g1.dim + g2.dim
    h1, _ = dims(g1, m1, top)
    h2, _ = dims(g2, m2, top)
    got, _ = dims(direct_sum(g1, g2), outer_tensor(m1, m2), top)
    assert [odd for _d, odd in got] == [0] * (top + 1)
    assert [d for d, _odd in got] == convolve([d for d, _ in h1], [d for d, _ in h2])


def abar_of(ds, g, ops):
    """The outer action g -> out(h) of one derivation of h per basis element of g."""
    cols = [ds.coordinates_of(op)[ds.inner_count:] for op in ops]
    return linear_map(g.space, ds.out.space, 0, [[c[r] for c in cols] for r in range(ds.out.dim)])


def on_plane(m):
    """A 2x2 matrix on span(P, Q) of heis3, and 0 on Z: a derivation when its trace is 0."""
    return [list(row) + [F(0)] for row in m] + [[F(0)] * 3]


CLASSIFY = {
    # name: (g, h, the matrices of the derivations abar lifts to; None for abar = 0)
    "sl2 on A(2|0) by V1": (sl2, lambda: abelian(2, 0),
                            lambda: [op.matrix for op in sl2_irrep(1)[1]]),
    "sl2 on heis3 by V1 on <P, Q>": (sl2, heis3,
                                      lambda: [on_plane(op.matrix) for op in sl2_irrep(1)[1]]),
    "sl2 on heis3 by 0": (sl2, heis3, None),
    "osp12 on A(1|2) by (1|2)": (osp12, lambda: abelian_algebra(("e0", "e1", "e2"), (0, 1, 1)),
                                 lambda: [op.matrix for op in osp12_standard()[1]]),
    "osp12 on gl11 by 0": (osp12, gl11, None),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classification_over_sl2_or_osp12_emits_at_most_one_datum(name):
    # H^2(g; Z(h)) = 0, so the torsor of extensions has at most one member
    make_g, make_h, lift = CLASSIFY[name]
    g, h = make_g(), make_h()
    ds = derivations(h)
    if lift is None:
        abar = GradedLinearMap.zero(g.space, ds.out.space)
    else:
        abar = abar_of(ds, g, [linear_map(h.space, h.space, p, m)
                               for p, m in zip(g.space.parities, lift())])
    rep = classify_extensions(h, g, abar)
    assert len(rep.data) <= 1
    if rep.obstruction.vanishes:
        assert rep.h2.total_dim == 0 and len(rep.data) == 1
