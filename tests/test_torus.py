"""Cohomology on the torus-weight-0 block against the whole complex.

`cohomology_space` eliminates only the cochains of torus weight 0 and
counts the rest.  These tests compare it with the path that eliminates
everything (the empty torus), check every representative against an
independent Cartan-weight oracle, cross-check torus-free bases of the same
algebras, and fire each new self-check.
"""

from fractions import Fraction

import pytest

from superext import cochains
from superext import cohomology as coh
from superext.catalog import gl11, heis3, osp12, sl2
from superext.cohomology import cohomology_space, gmodule, trivial_module
from superext.gvs import unit_vec
from superext.superlie import ad, direct_sum, make_algebra, validate_algebra

from oracles import cartan_torus, cartan_weight

F = Fraction


def adjoint_module(g):
    return gmodule(g, g.space, tuple(ad(g, unit_vec(g.dim, i)) for i in range(g.dim)))


def rescaled_osp12():
    """osp(1|2) in the basis f_i = s_i e_i; its torus weights are rational."""
    g, s = osp12(), (F(1, 2), F(3), F(2, 7), F(5, 3), F(-4, 5))
    return make_algebra(g.space, {
        (i, j): tuple(s[i] * s[j] / s[k] * c for k, c in enumerate(v))
        for i, row in enumerate(g.brackets) for j, v in enumerate(row) if any(v)
    })


def sheared(g, i, j):
    """g in the basis f_i = e_i + e_j, f_k = e_k otherwise (e_i, e_j of one parity)."""
    n = g.dim

    def new_coords(v):  # e_i = f_i - f_j
        w = list(v)
        w[j] -= w[i]
        return tuple(w)

    def old(k):
        v = [F(0)] * n
        v[k] += 1
        if k == i:
            v[j] += 1
        return v

    table = {}
    for a in range(n):
        for b in range(n):
            u, w = old(a), old(b)
            out = [F(0)] * n
            for p in range(n):
                for q in range(n):
                    if u[p] and w[q]:
                        for k, c in enumerate(g.brackets[p][q]):
                            out[k] += u[p] * w[q] * c
            if any(out):
                table[(a, b)] = new_coords(out)
    return make_algebra(g.space, table)


ALGEBRAS = {
    "sl2": sl2,
    "gl11": gl11,
    "osp12": osp12,
    "sl2+heis3": lambda: direct_sum(sl2(), heis3()),
    "gl11+sl2+heis3": lambda: direct_sum(direct_sum(gl11(), sl2()), heis3()),
    "rescaled osp12": rescaled_osp12,
}
CASES = [(name, module) for name in ("sl2", "gl11", "osp12", "rescaled osp12")
         for module in ("trivial", "adjoint")] + \
        [("sl2+heis3", "trivial"), ("gl11+sl2+heis3", "trivial")]
MODULES = {"trivial": trivial_module, "adjoint": adjoint_module}


@pytest.mark.parametrize("name, module", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_reduced_equals_full(name, module):
    g = ALGEBRAS[name]()
    mod = MODULES[module](g)
    torus = cartan_torus(g, mod.action)
    assert coh._torus(mod)  # the reduction acts
    for n in range(5):
        rep = cohomology_space(g, mod, n)
        for y in (0, 1):
            w = rep.weight(y)
            full, _prev = coh._weight_cohomology(mod, n, y, ())
            # the counted nonzero weights make up the dims of the whole complex
            assert (w.dim_cocycles, w.dim_coboundaries) == \
                (full.dim_cocycles, full.dim_coboundaries)
            assert w.basis == full.basis
            assert w.representative_coords == full.representative_coords
            assert w.representatives == full.representatives
            for phi in w.representatives:
                for tup, val in phi.values:
                    for m, c in enumerate(val):
                        if c:
                            assert not any(cartan_weight(torus, tup, m))


@pytest.mark.parametrize("base", [sl2, osp12], ids=["sl2", "osp12"])
def test_sheared_bases_have_no_torus_and_the_same_dims(base):
    # H -> H + E: no basis element has a diagonal ad, so the whole complex
    # is eliminated; cohomology does not depend on the basis
    g, s = base(), sheared(base(), 0, 1)
    assert validate_algebra(s).ok
    for module in (trivial_module, adjoint_module):
        mod, smod = module(g), module(s)
        assert coh._torus(mod) and cartan_torus(g, mod.action)
        assert coh._torus(smod) == () and cartan_torus(s, smod.action) == []
        for n in range(5):
            want = cohomology_space(g, mod, n)
            got = cohomology_space(s, smod, n)
            assert [(w.dim, w.dim_cocycles, w.dim_coboundaries) for w in got.weights] == \
                [(w.dim, w.dim_cocycles, w.dim_coboundaries) for w in want.weights]


def test_torus_weights_are_cleared_integers():
    mod = trivial_module(rescaled_osp12())
    ((lam, mu),) = coh._torus(mod)  # H only; E, F and the odd Q's are not toral
    assert lam == (0, 2, -2, 1, -1) and mu == (0,)
    # gl(1|1): a and d; heis3's central Z acts by 0 on everything and is skipped
    g = direct_sum(gl11(), heis3())
    assert coh._torus(trivial_module(g)) == (((0, 0, 1, -1, 0, 0, 0), (0,)),
                                            ((0, 0, -1, 1, 0, 0, 0), (0,)))


def test_weight_counts_off_the_closed_form_fire(monkeypatch):
    counts = coh._weight_counts

    def one_short(mod, torus, n):
        out = counts(mod, torus, n)
        w = next(iter(out[0][n - 1]))
        out[0][n - 1][w] -= 1
        return out

    g = sl2()
    monkeypatch.setattr(coh, "_weight_counts", one_short)
    with pytest.raises(RuntimeError, match=r"internal fault: the torus weights of C\^1 of "
                                           r"weight 0 do not sum to its closed form"):
        cohomology_space(g, trivial_module(g), 2)


def test_negative_alternating_sum_fires(monkeypatch):
    # one count of C^0 moved to a weight that occurs nowhere else: the sums
    # still match the closed form, but dim B^2 of that weight comes out -1
    counts = coh._weight_counts

    def moved(mod, torus, n):
        out = counts(mod, torus, n)
        out[0][0] = {(999,): sum(out[0][0].values())}
        return out

    g = sl2()
    monkeypatch.setattr(coh, "_weight_counts", moved)
    with pytest.raises(RuntimeError, match=r"internal fault: dim B\^2 of torus weight \(999,\)"):
        cohomology_space(g, trivial_module(g), 2)


def test_stencil_term_outside_the_weight_0_block_fires(monkeypatch):
    # an extra term on (E,) at every target tuple: E has torus weight -2,
    # so the weight-0 row (E, F) of D_1 reaches a dropped column
    stencil = cochains._delta_stencil

    def with_stray_term(alg, tup, weight):
        yield from stencil(alg, tup, weight)
        if len(tup) == 2:
            yield 1, (1,), None

    g = sl2()
    monkeypatch.setattr(cochains, "_delta_stencil", with_stray_term)
    with pytest.raises(RuntimeError, match="internal fault: a stencil term leaves the kept block"):
        cohomology_space(g, trivial_module(g), 1)
