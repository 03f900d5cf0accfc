"""Modules, cohomology spaces, lifts, the obstruction and classification."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superext.catalog import abelian, gl11, heis3, osp12, sl2, susy_line
from superext.cochains import canonical_tuples, covariant_delta
from superext.gvs import GradedLinearMap, linear_map, unit_vec
from superext.superlie import (
    abelian_algebra,
    ad,
    algebra_from_table,
    center,
    derivations,
    direct_sum,
    is_homomorphism,
    lift_alpha_bar,
    make_algebra,
    out_quotient,
    validate_algebra,
)
from superext.extensions import (
    ExtensionDatum,
    build_extension,
    check_datum,
    check_equivalence_witness,
    same_structure,
)
from superext.cohomology import (
    center_module,
    classify_extensions,
    cohomology_space,
    gmodule,
    module_delta,
    obstruction_class,
    push_center_cochain,
    rho_from_lift,
    trivial_module,
)

from oracles import (classical_ce_delta, delta_matrix_by_columns, dense_curvature_failures,
                     dense_mat_vec, dense_rref, dense_solve, extension_exists, graded_commutator,
                     normalized_structure, random_cochain, random_witness, scalar_cochain)
from test_torus import sheared

F = Fraction


def zero_abar(h, g):
    out_alg, _ = out_quotient(h)
    return GradedLinearMap.zero(g.space, out_alg.space, 0)


# ---------- modules ----------

def test_gmodule_rejects_non_homomorphism():
    g = sl2()
    sp = abelian(1, 0, "m").space
    # H acts by 1, E and F by 1: not a homomorphism ([H,E] = 2E must act by 0)
    one = linear_map(sp, sp, 0, ((1,),))
    with pytest.raises(ValueError):
        gmodule(g, sp, (one, one, one))


def test_center_module_centerless_is_zero():
    h, g = sl2(), abelian(1, 0, "t")
    mod, incl = center_module(h, g, lift_alpha_bar(derivations(h), g, zero_abar(h, g)))
    assert mod.space.dim == 0


def test_center_module_abelian_kernel_is_whole_space():
    h, g = abelian(1, 1, "m"), abelian(1, 0, "t")
    out_alg, _ = out_quotient(h)
    # a nonzero action: t acts by the identity on the even part
    ds = derivations(h)
    abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
    mod, incl = center_module(h, g, lift_alpha_bar(derivations(h), g, abar))
    assert mod.space.dim == 2
    assert sorted(mod.space.parities) == [0, 1]


def test_center_module_heis3_trivial_action():
    h, g = heis3(), abelian(1, 0, "t")
    mod, incl = center_module(h, g, lift_alpha_bar(derivations(h), g, zero_abar(h, g)))
    assert mod.space.dim == 1
    assert all(op.is_zero() for op in mod.action)
    assert incl.column(0) == (0, 0, 1)


def test_center_module_nonzero_action():
    # h abelian: out = der = gl(h); let t act by the grading automorphism
    h, g = abelian_algebra(("m0", "m1"), (0, 1)), abelian(1, 0, "t")
    out_alg, _ = out_quotient(h)
    ds = derivations(h)
    # find the out coordinates of the diagonal derivation diag(1, 2)
    target = linear_map(h.space, h.space, 0, ((1, 0), (0, 2)))
    coords = ds.coordinates_of(target)
    assert coords is not None
    abar = linear_map(g.space, out_alg.space, 0,
                      tuple((c,) for c in coords[ds.inner_count:]))
    mod, incl = center_module(h, g, lift_alpha_bar(derivations(h), g, abar))
    assert mod.action[0].matrix == ((1, 0), (0, 2))


# ---------- cohomology spaces ----------

def test_h0_trivial_line_is_invariants():
    for g in (sl2(), heis3(), abelian(2, 0)):
        rep = cohomology_space(g, trivial_module(g), 0)
        assert rep.weight(0).dim == 1
        assert rep.weight(1).dim == 0


def test_h2_heisenberg_class():
    g = abelian(2, 0)
    rep = cohomology_space(g, trivial_module(g), 2)
    assert rep.weight(0).dim == 1
    assert rep.weight(1).dim == 0


def test_h_odd_line_all_degrees():
    g = abelian(0, 1)
    mod = trivial_module(g)
    for p in range(7):
        rep = cohomology_space(g, mod, p)
        assert rep.weight(p % 2).dim == 1
        assert rep.weight((p + 1) % 2).dim == 0


def test_sl2_whitehead():
    # H^*(sl(2); C) is an exterior algebra on one class of degree 3
    g = sl2()
    mod = trivial_module(g)
    assert cohomology_space(g, mod, 0).total_dim == 1
    assert cohomology_space(g, mod, 1).total_dim == 0
    assert cohomology_space(g, mod, 2).total_dim == 0
    assert cohomology_space(g, mod, 3).total_dim == 1


def test_classical_reduction_matches_ce_oracle(rng):
    # purely even algebras: our differential equals the classical one
    for g in (sl2(), heis3()):
        for arity in (1, 2, 3):
            table = {}
            for tup in canonical_tuples(g.space, arity):
                table[tup] = F(rng.randint(-3, 3))
            psi = scalar_cochain(g.space, arity, 0, table)
            ours = module_delta(trivial_module(g), psi)
            oracle = classical_ce_delta(g, {t: c for t, c in table.items()}, arity)
            for tup in canonical_tuples(g.space, arity + 1):
                got = ours.value(tup)[0]
                assert got == oracle.get(tup, F(0))


def test_module_delta_squares_to_zero(rng):
    # random small modules: adjoint sl2, natural gl11, center modules
    cases = []
    g = sl2()
    cases.append((g, gmodule(g, g.space, tuple(ad(g, unit_vec(3, i)) for i in range(3)))))
    g2 = gl11()
    nat = abelian_algebra(("v0", "v1"), (0, 1)).space
    mats = {
        0: ((1, 0), (0, 0)),   # a = E11
        1: ((0, 0), (0, 1)),   # d = E22
        2: ((0, 1), (0, 0)),   # x = E12 (odd)
        3: ((0, 0), (1, 0)),   # y = E21 (odd)
    }
    ops = tuple(linear_map(nat, nat, g2.space.parities[i], mats[i]) for i in range(4))
    cases.append((g2, gmodule(g2, nat, ops)))
    h, g3 = heis3(), abelian(1, 0, "t")
    alpha3 = lift_alpha_bar(derivations(h), g3, zero_abar(h, g3))
    cases.append((g3, center_module(h, g3, alpha3)[0]))
    for g, mod in cases:
        for arity in range(0, 4):
            for w in (0, 1):
                phi = random_cochain(g.space, mod.space, arity, w, rng)
                assert module_delta(mod, module_delta(mod, phi)).is_zero()


def test_weight_splitting_respected():
    # H^0 and H^1 of the susy line hold one class of each weight
    g = susy_line()
    mod = trivial_module(g)
    for w in (0, 1):
        reps = [c for n in (0, 1) for c in cohomology_space(g, mod, n).weight(w).representatives]
        assert len(reps) == 1
        assert all(c.weight == w for c in reps)


def test_representatives_are_cocycles_independent_mod_boundaries():
    g = abelian(2, 1)
    mod = trivial_module(g)
    for n in (1, 2, 3):
        rep = cohomology_space(g, mod, n)
        for w in (0, 1):
            wr = rep.weight(w)
            assert len(wr.representatives) == wr.dim
            for c in wr.representatives:
                assert module_delta(mod, c).is_zero()


def test_center_module_does_not_depend_on_the_lift(rng):
    # adding an inner ad_H of matching parity to each lifted operator leaves
    # the center module unchanged; g has an odd generator, so odd H occur
    h = gl11()
    ds = derivations(h)
    g = direct_sum(ds.out, abelian(0, 1, "q"))
    k = ds.out.dim
    abar = linear_map(g.space, ds.out.space, 0,
                      tuple(tuple(F(int(r == c)) for c in range(g.dim)) for r in range(k)))
    alpha = lift_alpha_bar(ds, g, abar)
    mod, incl = center_module(h, g, alpha)
    assert not all(op.is_zero() for op in mod.action)
    for _ in range(5):
        shifted = []
        for i, op in enumerate(alpha):
            p = g.space.parities[i]
            x = tuple(F(rng.randint(-3, 3)) if h.space.parities[m] == p else F(0)
                      for m in range(h.dim))
            shifted.append(op + ad(h, x, degree=p))
        assert center_module(h, g, tuple(shifted)) == (mod, incl)


@pytest.mark.parametrize("kind", ["classify", "pullback"])
def test_der_and_out_built_once_per_call(monkeypatch, kind):
    # every superext namespace binding derivations gets a counting wrapper,
    # so no call path escapes the count; given h the job builds der(h) once,
    # given the caller's der(h) it builds none, and both give equal results
    from superext import superlie
    from superext.extensions import pullback_extension
    h = heis3() if kind == "classify" else sl2()
    g = abelian(1, 0, "t")
    abar = zero_abar(h, g)
    job = classify_extensions if kind == "classify" else pullback_extension
    ds = derivations(h)
    counts = {}
    for name in ("derivations",):
        fn = getattr(superlie, name)
        counts[name] = 0

        def counted(*args, _name=name, _fn=fn):
            counts[_name] += 1
            return _fn(*args)

        for mod in list(sys.modules.values()):
            if mod.__name__.split(".")[0] == "superext" and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    from_ds = job(ds, g, abar)
    assert counts == {"derivations": 0}
    from_h = job(h, g, abar)
    assert counts == {"derivations": 1}
    assert from_ds == from_h


def test_fixed_systems_eliminated_once(monkeypatch):
    # out(h)'s brackets solve their commutators against one elimination of
    # the der(h) basis, and the curvature reads its coordinates in that
    # basis and der(h)'s inner preimages: an elimination is a LinearSystem build
    from superext import gvs
    from superext import cohomology as coh
    from superext.extensions import pullback_extension

    h = direct_sum(sl2(), heis3())
    g = abelian(1, 1, "t")  # pairs of both parities reach rho_from_lift
    abar = zero_abar(h, g)
    built = []  # the columns of every LinearSystem, as sparse dicts
    inside = {}
    init = gvs.LinearSystem.__init__

    def counted_init(self, cols, nrows):
        cols = list(cols)
        built.append([dict(c) if isinstance(c, dict) else {i: x for i, x in enumerate(c) if x}
                      for c in cols])
        init(self, cols, nrows)

    def measured(name, fn):
        def run(*args):
            before = len(built)
            result = fn(*args)
            inside[name] = built[before:]
            return result
        return run

    def der_cols(alg):  # before the count starts: derivations builds systems too
        return [d._flat_nonzeros() for d in derivations(alg).basis]

    der_h, der_sl2 = der_cols(h), der_cols(sl2())
    monkeypatch.setattr(gvs.LinearSystem, "__init__", counted_init)
    monkeypatch.setattr(coh, "rho_from_lift", measured("rho_from_lift", coh.rho_from_lift))
    def der_and_out(alg):  # out(h) is bracketed on first read
        ds = derivations(alg)
        ds.out
        return ds

    ds = measured("der_and_out", der_and_out)(h)
    assert (len(ds.basis), ds.out.dim) == (9, 4)  # 10 out(h) commutators
    assert sum(cols == der_h for cols in inside["der_and_out"]) == 1
    built.clear()
    obs = obstruction_class(ds, g, abar)  # on the caller's out(h): it eliminates no der(h) basis
    assert not any(cols == der_h for cols in built)
    assert inside["rho_from_lift"] == []
    # Z(h) coordinates are read off center's basis: its inclusion is never eliminated
    incl_cols = [dict(col) for col in obs.center_incl.columns]
    assert incl_cols and incl_cols not in built

    # a pullback needs der(h) coordinates for its bracket table and for
    # the inclusion of h: one elimination of the der(h) basis serves both
    h, g = sl2(), abelian(1, 0, "t")
    abar = zero_abar(h, g)
    built.clear()
    pullback_extension(h, g, abar)
    assert sum(cols == der_sl2 for cols in built) == 1


def test_obstruction_assembles_each_differential_once(monkeypatch):
    # delta_alpha rho on h, then the center module's D_3 and D_2 of weight
    # 0, whose one solve gives the class, the primitive mu and closedness;
    # the D_3 D_2 = 0 self-check still runs.  Every superext binding of
    # differential_matrix is counted, covariant_delta's included
    from superext import cochains
    from superext import cohomology as coh

    h, g = heis3(), abelian(1, 1, "t")
    built, checked = [], []
    differential_matrix, check = cochains.differential_matrix, coh._check_squares_to_zero

    def counted_differential(g, ops, target, n, y, bases=None):
        built.append((target, n))
        return differential_matrix(g, ops, target, n, y, bases)

    def counted_check(outer, inner, n):
        checked.append(n)
        return check(outer, inner, n)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "superext" and \
                vars(mod).get("differential_matrix") is differential_matrix:
            monkeypatch.setattr(mod, "differential_matrix", counted_differential)
    monkeypatch.setattr(coh, "_check_squares_to_zero", counted_check)
    obs = obstruction_class(derivations(h), g, zero_abar(h, g))
    assert obs.vanishes and obs.mu is not None
    z = obs.module.space
    assert len(built) == 3 and set(built) == {(h.space, 2), (z, 2), (z, 3)}
    assert checked == [3]
    # a classification adds one delta_alpha on C^2(g; h), shared by every
    # emitted datum's check, so (h, 2) is assembled twice whatever the count
    for h, g, abar in ((heis3(), abelian(2, 0, "u"), None), (gl11(), abelian(2, 0, "u"), None),
                       unobstructed_h_t()):
        built.clear()
        rep = classify_extensions(h, g, abar or zero_abar(h, g))
        assert rep.obstruction.vanishes and len(rep.data) >= 1
        assert built.count((h.space, 2)) <= 2


def test_primitive_of_an_exact_obstruction_cocycle(monkeypatch, rng):
    # no input here reaches a nonzero obstruction cocycle whose class
    # vanishes, so one takes the place of delta_alpha(rho): lam = delta(nu)
    # for a random weight-0 nu, over a g whose differential carries a scale
    from superext import cohomology as coh
    from test_structure_constants import rescaled

    h, g = heis3(), rescaled(osp12(), (1, 1, 1, F(1, 2), 3))
    abar = zero_abar(h, g)
    obs = obstruction_class(derivations(h), g, abar)
    lam = module_delta(obs.module, random_cochain(g.space, obs.module.space, 2, 0, rng))
    assert not lam.is_zero()
    lam_h, real = push_center_cochain(lam, obs.center_incl), coh.covariant_delta
    monkeypatch.setattr(coh, "covariant_delta",
                        lambda g_, ops, phi: lam_h if phi == obs.rho else real(g_, ops, phi))
    obs = obstruction_class(derivations(h), g, abar)
    assert obs.lam == lam and obs.vanishes
    assert module_delta(obs.module, obs.mu) == lam


# ---------- lift and curvature from a lift ----------

def test_lift_zero():
    h, g = sl2(), abelian(1, 0, "t")
    alpha = lift_alpha_bar(derivations(h), g, zero_abar(h, g))
    assert all(op.is_zero() for op in alpha)


def test_lift_point_kernel_identity():
    # h = A(1|0): ad = 0, der = out = gl(1); the lift is the identification
    h, g = abelian(1, 0, "w"), abelian(1, 0, "t")
    out_alg, _ = out_quotient(h)
    abar = linear_map(g.space, out_alg.space, 0, ((F(3),),))
    alpha = lift_alpha_bar(derivations(h), g, abar)
    assert alpha[0].matrix == ((3,),)


def test_lift_projects_back(rng):
    # pi(alpha(X)) = abar(X) for the deterministic lift; abar sends both
    # generators of the abelian g to multiples of one outer element, so it
    # is a homomorphism into the (nonabelian) out(heis3)
    h, g = heis3(), abelian(2, 0, "u")
    out_alg, pi = out_quotient(h)
    ds = derivations(h)
    for _ in range(5):
        xi = [F(rng.randint(-2, 2)) for _ in range(out_alg.dim)]
        c0, c1 = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        m = tuple((c0 * xi[r], c1 * xi[r]) for r in range(out_alg.dim))
        abar = linear_map(g.space, out_alg.space, 0, m)
        assert is_homomorphism(abar, g, out_alg)
        alpha = lift_alpha_bar(derivations(h), g, abar)
        for j in range(g.dim):
            coords = ds.coordinates_of(alpha[j])
            assert coords is not None
            assert pi.apply(coords) == abar.column(j)


def test_rho_from_lift_zero_for_homomorphism():
    h, g = sl2(), abelian(1, 0, "t")
    alpha = lift_alpha_bar(derivations(h), g, zero_abar(h, g))
    rho = rho_from_lift(derivations(h), g, alpha)
    assert rho.is_zero()


def test_rho_from_lift_canonical_center_drop():
    # the scaling derivation D (P -> P, Z -> Z) of heis3 satisfies
    # [D, ad_P] = ad_P, so the defect of (D, ad_P) on (u0, u1) is ad_P;
    # the canonical solution of ad_H = ad_P is H = P with no Z component
    # even though the solution is only unique up to the center
    from superext.superlie import is_derivation
    h = heis3()
    scaling = linear_map(h.space, h.space, 0, ((1, 0, 0), (0, 0, 0), (0, 0, 1)))
    assert is_derivation(h, scaling)
    ad_p = ad(h, unit_vec(3, 0))
    assert graded_commutator(scaling, ad_p) == ad_p
    g = abelian(2, 0, "u")
    rho = rho_from_lift(derivations(h), g, (scaling, ad_p))
    v = rho.value((0, 1))
    assert ad(h, v, degree=0) == ad_p
    assert v == (1, 0, 0)  # = P; the free center coordinate is dropped


def test_rho_from_lift_rejects_non_inner_defect():
    # two outer derivations of heis3 whose commutator is NOT inner
    h = heis3()
    ds = derivations(h)
    outer = ds.basis[ds.inner_count:]
    g = abelian(2, 0, "u")
    for d1 in outer:
        for d2 in outer:
            comm = graded_commutator(d1, d2)
            coords = ds.coordinates_of(comm)
            if coords is not None and any(c != 0 for c in coords[ds.inner_count:]):
                with pytest.raises(ValueError):
                    rho_from_lift(derivations(h), g, (d1, d2))
                return
    pytest.skip("no pair with non-inner commutator found")


# ---------- obstruction ----------

def test_obstruction_abelian_kernel_vanishes():
    h, g = abelian(1, 1, "m"), susy_line()
    obs = obstruction_class(derivations(h), g, zero_abar(h, g))
    assert obs.vanishes
    assert obs.rho.is_zero()
    assert obs.lam.is_zero()


def test_obstruction_centerless_vanishes():
    h = sl2()
    for g in (sl2(), susy_line(), abelian(1, 1)):
        obs = obstruction_class(derivations(h), g, zero_abar(h, g))
        assert obs.vanishes
        assert obs.lam.is_zero()
        assert obs.class_coords == ()


def test_obstruction_heis3_pipeline():
    h, g = heis3(), abelian(0, 1, "q")
    obs = obstruction_class(derivations(h), g, zero_abar(h, g))
    assert obs.vanishes
    # the repaired datum satisfies all extension conditions
    mu_h = push_center_cochain(obs.mu, obs.center_incl)
    d = ExtensionDatum(g, h, obs.alpha, obs.rho - mu_h)
    assert check_datum(d).ok


def test_obstruction_closedness_and_center_membership(rng):
    # lambda lies in Z(h) and is closed; checked on several kernels/actions
    cases = [(heis3(), abelian(2, 0, "u")), (gl11(), abelian(1, 1, "t")),
             (abelian(2, 1, "m"), susy_line())]
    for h, g in cases:
        obs = obstruction_class(derivations(h), g, zero_abar(h, g))
        assert module_delta(obs.module, obs.lam).is_zero()
        for tup, val in obs.lam.values:
            # membership was enforced during coercion; re-check through h
            v = obs.center_incl.apply(val)
            assert ad(h, v, degree=h.space.vector_parity(v)).is_zero()


def test_lift_invariance_of_obstruction_cochain(rng):
    # lambda(alpha, rho) = lambda(alpha', rho') for perturbed lifts,
    # with rho' = rho + delta_alpha b + [b,b]/2 (20 random perturbations)
    from superext.cochains import nr_bracket
    from superext.extensions import witness_cochain
    cases = [(heis3(), abelian(0, 1, "q")), (gl11(), abelian(1, 0, "t"))]
    for h, g in cases:
        obs = obstruction_class(derivations(h), g, zero_abar(h, g))
        lam_h = covariant_delta(g, obs.alpha, obs.rho)
        for _ in range(20):
            b = random_witness(g, h, rng)
            bc = witness_cochain(b)
            alpha2 = tuple(
                op + ad(h, b.column(i), degree=g.space.parities[i])
                for i, op in enumerate(obs.alpha)
            )
            rho2 = obs.rho + covariant_delta(g, obs.alpha, bc) \
                + nr_bracket(bc, bc, h).scale(F(1, 2))
            lam2_h = covariant_delta(g, alpha2, rho2)
            assert lam2_h == lam_h


def test_two_admissible_curvatures_differ_by_center(rng):
    # fixed lift, rho' = rho + (center-valued mu): lambda difference is the
    # module differential of mu
    h, g = heis3(), abelian(0, 1, "q")
    obs = obstruction_class(derivations(h), g, zero_abar(h, g))
    incl = obs.center_incl
    mod = obs.module
    for _ in range(10):
        mu = random_cochain(g.space, mod.space, 2, 0, rng)
        mu_h = push_center_cochain(mu, incl)
        rho2 = obs.rho + mu_h
        # rho2 still solves the commutator-defect equation
        d2 = ExtensionDatum(g, h, obs.alpha, rho2)
        assert check_datum(d2).commutator_defect_ok
        lam1 = covariant_delta(g, obs.alpha, obs.rho)
        lam2 = covariant_delta(g, obs.alpha, rho2)
        dmu = push_center_cochain(module_delta(mod, mu), incl)
        assert lam2 - lam1 == dmu


# ---------- classification ----------

def test_classify_centerless_single_class():
    h = sl2()
    for g in (abelian(2, 0), susy_line()):
        rep = classify_extensions(h, g, zero_abar(h, g))
        assert rep.centerless
        assert len(rep.data) == 1
        assert check_datum(rep.data[0]).ok


def test_classify_heisenberg_two_classes():
    g, h = abelian(2, 0, "u"), abelian(1, 0, "Z")
    rep = classify_extensions(h, g, zero_abar(h, g))
    assert rep.abelian_kernel
    assert rep.h2.weight(0).dim == 1
    assert len(rep.data) == 2
    built = [build_extension(d).e for d in rep.data]
    centers = sorted(len(center(e)) for e in built)
    assert centers == [1, 3]  # direct sum vs the Heisenberg algebra


def unobstructed_h_t():
    """An h_T member with T^2 = 0 (T w0 = v0, T v0 = 0), over A(0|1) by the class of D."""
    h, d, _ = h_t(1, 1, [[1]], [[0]])
    g, ds = abelian_algebra(("Q",), (1,)), derivations(h)
    coords = ds.coordinates_of(d)
    return h, g, linear_map(g.space, ds.out.space, 0, tuple((c,) for c in coords[ds.inner_count:]))


@pytest.mark.parametrize("kernel", ["heis3", "gl11", "heis3 over gl11+A(1|0)", "h_T"])
def test_classify_checks_each_datum_once(monkeypatch, kernel):
    # the classification builds no algebra, and it checks every emitted
    # datum: with the second datum's nu corrupted it raises its internal
    # fault.  Over A(2|0) the corruption is not center-valued, so the
    # defect condition fails; over gl(1|1)+A(1|0) it is a center-valued
    # cochain that is not closed, so only delta_alpha rho = 0 fails
    from superext import cohomology as coh
    from superext import extensions
    if kernel == "h_T":
        h, g, abar = unobstructed_h_t()
    else:
        h = {"heis3": heis3, "gl11": gl11}[kernel.split()[0]]()
        g = direct_sum(gl11(), abelian(1, 0, "u")) if "over" in kernel else abelian(2, 0, "u")
        abar = zero_abar(h, g)
    built = []
    for name in ("raw_extension_algebra", "build_extension"):
        real = getattr(extensions, name)
        monkeypatch.setattr(extensions, name, lambda d, real=real: built.append(d) or real(d))
    rep = classify_extensions(h, g, abar)
    assert built == [] and len(rep.data) == (1 if kernel == "h_T" else 2)
    if kernel == "h_T":
        return
    obs, rng = rep.obstruction, random.Random(kernel)
    if "over" in kernel:
        bad = next(c for c in iter(lambda: random_cochain(g.space, obs.module.space, 2, 0, rng),
                                   None) if not module_delta(obs.module, c).is_zero())
        bad = push_center_cochain(bad, obs.center_incl)
    else:
        bad = random_cochain(g.space, h.space, 2, 0, rng)
    push, pushed, corrupted = coh.push_center_cochain, [], []

    def corrupting(phi, incl):  # the first push is mu, the second the first nu
        pushed.append(phi)
        return push(phi, incl) + bad if len(pushed) == 2 else push(phi, incl)

    monkeypatch.setattr(coh, "push_center_cochain", corrupting)
    monkeypatch.setattr(coh, "ExtensionDatum", lambda *a: corrupted.append(ExtensionDatum(*a))
                        or corrupted[-1])
    with pytest.raises(RuntimeError, match="emitted datum fails the extension conditions"):
        classify_extensions(h, g, abar)
    first, second = (check_datum(d) for d in corrupted)
    assert first.ok and not second.ok and built == []
    if "over" in kernel:
        assert all(second.derivation_ok) and second.commutator_defect_ok
        assert not second.cyclic_curvature_ok
    else:
        assert not second.commutator_defect_ok


def test_classify_susy_pair():
    from superext.superlie import abelian_algebra
    g = abelian_algebra(("Q",), (1,))
    h = abelian_algebra(("H",), (0,))
    rep = classify_extensions(h, g, zero_abar(h, g))
    assert rep.h2.weight(0).dim == 1
    assert len(rep.data) == 2
    nu = rep.representatives[0]
    nu_h = push_center_cochain(nu, rep.obstruction.center_incl)
    scaled = ExtensionDatum(g, h, rep.base.alpha, rep.base.rho + nu_h.scale(2))
    t = build_extension(scaled)
    assert same_structure(t.e, susy_line())


def test_classify_emitted_data_pairwise_inequivalent():
    # distinct H^2 representatives are not related by any central witness:
    # over these pairs equivalence via b in Z(h) is the linear condition
    # delta b = difference, which the solver refutes
    g, h = abelian(2, 0, "u"), abelian(1, 0, "Z")
    rep = classify_extensions(h, g, zero_abar(h, g))
    d0, d1 = rep.data
    from superext.extensions import solve_split_abelian
    diff = ExtensionDatum(g, h, d0.alpha, d1.rho - d0.rho)
    assert solve_split_abelian(diff) is None
    # and directly: every witness in a spanning probe set fails
    probes = []
    for k in range(h.dim):
        for j in range(g.dim):
            if h.space.parities[k] == g.space.parities[j]:
                m = [[F(0)] * g.dim for _ in range(h.dim)]
                m[k][j] = F(1)
                probes.append(linear_map(g.space, h.space, 0,
                                         tuple(tuple(r) for r in m)))
    for b in probes:
        assert not check_equivalence_witness(d0, d1, b)


def test_classify_obstructed_report_shape():
    # exercised through the report contract: fabricate a nonzero class by
    # calling the classification on data where it vanishes and checking the
    # vanishing branch, then unit-check the obstructed branch fields
    from superext.cohomology import ClassificationReport, ObstructionReport
    h, g = heis3(), abelian(0, 1, "q")
    obs = obstruction_class(derivations(h), g, zero_abar(h, g))
    fake = ObstructionReport(obs.alpha, obs.rho, obs.lam, obs.module,
                             obs.center_incl, (F(1),), False, None)
    rep = ClassificationReport(fake, None, None, (), (), False, False)
    assert not rep.obstruction.vanishes
    assert rep.data == ()


def test_classify_obstructed_kernel():
    # kx4 = <x, v0 | v1, z>, [x,v0] = 2 v0, [x,v1] = 2 v1; abar(Q) is the class of
    # the odd derivation D: x -> z, v0 -> v1, v1 -> v0.  2 D^2 = ad x gives
    # lam(Q,Q,Q) = 3 D(x) = 3z, and Z(kx4) = <z> is odd, so no weight-0
    # coboundary can cancel it: no extension induces abar
    h = algebra_from_table(("x", "v0", "v1", "z"), (0, 0, 1, 1),
                           {("x", "v0"): {"v0": 2}, ("x", "v1"): {"v1": 2}})
    g = abelian_algebra(("Q",), (1,))
    out_space = derivations(h).out.space
    abar = linear_map(g.space, out_space, 0, ((0,), (0,), (1,), (1,), (1,)))
    rep = classify_extensions(h, g, abar)
    obs = rep.obstruction
    assert obs.vanishes is False
    assert obs.class_coords == (3,)
    assert obs.mu is None
    assert rep.data == () and rep.h2 is None
    assert obs.lam.target.names == ("z0",)
    assert obs.lam.values == (((0, 0, 0), (3,)),)


def h_t(p, q, t_even, t_odd):
    """h_T = <x> x| V (+) <z> on V of dims (p|q), and its odd derivation D.

    T is odd on V: t_even[a][b] is the v_a coefficient of T w_b and
    t_odd[b][a] the w_b coefficient of T v_a.  [x, v] = 2 T^2 v, z is odd
    and central, and D is T on V with D(x) = z; kx4 is T^2 = id on (1|1).
    """
    names = ("x", *(f"v{a}" for a in range(p)), *(f"w{b}" for b in range(q)), "z")
    n = len(names)
    t = [[F(0)] * n for _ in range(n)]  # T on V as an n x n matrix
    for a in range(p):
        for b in range(q):
            t[1 + a][1 + p + b], t[1 + p + b][1 + a] = F(t_even[a][b]), F(t_odd[b][a])
    t2 = [[sum(t[i][m] * t[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    table = {("x", names[j]): {names[i]: 2 * t2[i][j] for i in range(n) if t2[i][j]}
             for j in range(1, n - 1) if any(row[j] for row in t2)}
    h = algebra_from_table(names, (0, *[0] * p, *[1] * q, 1), table)
    t[n - 1][0] = F(1)
    return h, linear_map(h.space, h.space, 1, tuple(map(tuple, t))), any(map(any, t2))


@st.composite
def h_t_args(draw):
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entries = st.integers(-2, 2)
    t_even = draw(st.lists(st.lists(entries, min_size=q, max_size=q), min_size=p, max_size=p))
    t_odd = draw(st.lists(st.lists(entries, min_size=p, max_size=p), min_size=q, max_size=q))
    return p, q, t_even, t_odd


# kx4 plus an even central v1: Z(h)_0 = <v1> makes the weight-0 C^2 nonempty,
# so the class coordinates do not start the solution of the obstruction's solve
@example((2, 1, [[1], [0]], [[1, 0]]))
@settings(max_examples=8, deadline=None)
@given(h_t_args())
def test_h_t_is_obstructed_exactly_when_t_squared_is_nonzero(args):
    # the paper's criterion on a family with a known answer: an extension of
    # A(0|1) inducing the class of D exists iff [lam] = 0 in H^3, and here
    # lam(Q,Q,Q) = 3 D(x) = 3z is a coboundary exactly when T^2 = 0
    h, d, t2_nonzero = h_t(*args)
    assert validate_algebra(h).ok
    g, ds = abelian_algebra(("Q",), (1,)), derivations(h)
    coords = ds.coordinates_of(d)
    abar = linear_map(g.space, ds.out.space, 0,
                      tuple((c,) for c in coords[ds.inner_count:]))
    obs = obstruction_class(ds, g, abar)
    assert obs.vanishes is not t2_nonzero
    rep = classify_extensions(h, g, abar)
    assert (rep.data == ()) is t2_nonzero
    assert assert_existence_oracle_agrees(h, g, abar) is not t2_nonzero


def test_h_t_contains_kx4():
    h, d, t2_nonzero = h_t(1, 1, [[1]], [[1]])
    assert t2_nonzero
    kx4 = algebra_from_table(("x", "v0", "w0", "z"), (0, 0, 1, 1),
                             {("x", "v0"): {"v0": 2}, ("x", "w0"): {"w0": 2}})
    assert same_structure(h, kx4) and h.space.names == kx4.space.names


def assert_existence_oracle_agrees(h, g, abar):
    # an extension inducing abar exists iff [lam] = 0, and then the data form
    # a torsor: nullity - rank of delta on C^1_0(g; Z(h)) = weight-0 dim H^2
    exists, nullity = extension_exists(derivations(h), g, abar)
    rep = classify_extensions(h, g, abar)
    assert exists == rep.obstruction.vanishes
    if exists:
        mod = rep.obstruction.module
        d1 = delta_matrix_by_columns(g, mod.action, mod.space, 1, 0)
        assert nullity - len(dense_rref(d1)[1]) == rep.h2.weight(0).dim
    return exists


ORACLE_KERNELS = {"heis3": heis3, "gl11": gl11, "sl2+heis3": lambda: direct_sum(sl2(), heis3())}


def test_existence_oracle_on_kx4():
    h = algebra_from_table(("x", "v0", "v1", "z"), (0, 0, 1, 1),
                           {("x", "v0"): {"v0": 2}, ("x", "v1"): {"v1": 2}})
    g = abelian_algebra(("Q",), (1,))
    abar = linear_map(g.space, derivations(h).out.space, 0, ((0,), (0,), (1,), (1,), (1,)))
    assert assert_existence_oracle_agrees(h, g, abar) is False


@pytest.mark.parametrize("action", ["zero", "identity"])
@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_existence_oracle_on_kernels(name, action):
    # the zero action of A(1|1), and g = out(h) acting by the identity
    h = ORACLE_KERNELS[name]()
    out = derivations(h).out
    if action == "zero":
        g = abelian(1, 1, "t")
        abar = GradedLinearMap.zero(g.space, out.space, 0)
    else:
        g, abar = out, GradedLinearMap.identity_map(out.space)
    assert_existence_oracle_agrees(h, g, abar)


def test_classify_respects_nonzero_action():
    # h abelian with a nonzero action: classes are pairs (action, H^2 class)
    h, g = abelian_algebra(("w",), (0,)), sl2()
    out_alg, _ = out_quotient(h)
    abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
    rep = classify_extensions(h, g, abar)
    # H^2(sl2; Q) = 0: only the direct sum
    assert len(rep.data) == 1
    assert check_datum(rep.data[0]).ok


def test_centerless_classification_matches_pullback():
    # one class, and its built algebra has the structure constants of the
    # normalized pullback
    from superext.extensions import pullback_extension
    h = sl2()
    for g in (abelian(1, 0, "t"), abelian(0, 1, "q")):
        abar = zero_abar(h, g)
        rep = classify_extensions(h, g, abar)
        assert rep.centerless and len(rep.data) == 1
        built = build_extension(rep.data[0]).e
        pulled = normalized_structure(pullback_extension(h, g, abar))
        assert same_structure(built, pulled)


def test_cohomology_space_arity_cap():
    # the library has no arity cap: only a negative arity is refused
    g = abelian(0, 1)
    mod = trivial_module(g)
    assert tuple(w.dim for w in cohomology_space(g, mod, 7).weights) == (0, 1)
    with pytest.raises(ValueError):
        cohomology_space(g, mod, -1)


def test_heisenberg_betti_numbers():
    # classical: dim H^p(heis3; Q) = 1, 2, 2, 1
    g = heis3()
    mod = trivial_module(g)
    dims = [cohomology_space(g, mod, p).total_dim for p in range(4)]
    assert dims == [1, 2, 2, 1]
    # H^1 is spanned by the duals of the generators P, Q
    reps = cohomology_space(g, mod, 1).weight(0).representatives
    spans = sorted(tup for c in reps for tup, _ in c.values)
    assert spans == [(0,), (1,)]


def test_classify_with_nonzero_outer_action():
    # h = one even line, out(h) = gl(1): a nonzero action gives the
    # non-trivial semidirect product [t, w] = c w as the single class
    h = abelian_algebra(("w",), (0,))
    g = abelian(1, 0, "t")
    out_alg, _ = out_quotient(h)
    abar = linear_map(g.space, out_alg.space, 0, ((F(3),),))
    obs = obstruction_class(derivations(h), g, abar)
    assert obs.vanishes
    assert obs.alpha[0].matrix == ((3,),)
    rep = classify_extensions(h, g, abar)
    # H^2(A(1|0); (h, abar)) = 0: one 2-tuple basis is empty for 1-dim even g
    assert len(rep.data) == 1
    t = build_extension(rep.data[0])
    assert t.e.bracket_vec(unit_vec(2, 1), unit_vec(2, 0)) == (3, 0)
    d = check_datum(rep.data[0])
    assert d.ok


def test_obstruction_with_nonzero_action_on_center():
    # h abelian (1|1): out = gl(1|1); act through the even diagonal part
    h = abelian_algebra(("m0", "m1"), (0, 1))
    g = abelian(1, 0, "t")
    out_alg, _ = out_quotient(h)
    from superext.superlie import derivations
    ds = derivations(h)
    diag = linear_map(h.space, h.space, 0, ((1, 0), (0, -1)))
    coords = ds.coordinates_of(diag)
    abar = linear_map(g.space, out_alg.space, 0,
                      tuple((c,) for c in coords[ds.inner_count:]))
    obs = obstruction_class(derivations(h), g, abar)
    assert obs.vanishes
    assert obs.module.action[0].matrix == ((1, 0), (0, -1))
    rep = classify_extensions(h, g, abar)
    for d in rep.data:
        assert check_datum(d).ok


def diag_101_abar(h, g):
    """A(1|0) -> out(heis3) through the outer derivation P -> P, Q -> 0, Z -> Z, which
    acts on Z(h) by 1; it is diag(1, 0, 1) in the sheared basis P, Q, Z + P too."""
    ds = derivations(h)
    coords = ds.coordinates_of(linear_map(h.space, h.space, 0, ((1, 0, 0), (0, 0, 0), (0, 0, 1))))
    return linear_map(g.space, ds.out.space, 0, tuple((c,) for c in coords[ds.inner_count:]))


def test_center_coordinates_off_a_pivot_column():
    # in the basis P, Q, Z + P the center is spanned by z0 = (-1, 0, 1): its entry
    # at the pivot, column 0, is -1 and at the free column, 2, is 1, so a reader
    # of the pivot column would give z0 itself the coordinate -1
    g, plain, h = abelian(1, 0, "t"), heis3(), sheared(heis3(), 2, 0)
    assert center(h) == [(-1, 0, 1)]
    want, obs = (obstruction_class(derivations(k), g, diag_101_abar(k, g)) for k in (plain, h))
    assert (obs.vanishes, obs.class_coords) == (want.vanishes, want.class_coords)
    incl = obs.center_incl
    dense = [dense_solve(incl.matrix, dense_mat_vec(obs.alpha[0].matrix, z), 1)
             for z in center(h)]
    assert obs.module.action[0].matrix == tuple(zip(*dense)) == ((1,),)
    plain_rep, rep = (classify_extensions(k, g, diag_101_abar(k, g)) for k in (plain, h))
    assert rep.h2.weight(0).dim == plain_rep.h2.weight(0).dim
    assert len(rep.data) == len(plain_rep.data) == 1
    assert all(dense_curvature_failures(d) == [] for d in rep.data)


def test_center_coordinates_recomposed(monkeypatch):
    # a basis of Z(h) that is not `center`'s canonical one, each vector doubled:
    # the entries at the free columns are no longer coordinates over it
    from superext import cohomology as coh

    g, h = abelian(1, 0, "t"), sheared(heis3(), 2, 0)
    abar = diag_101_abar(h, g)
    monkeypatch.setattr(coh, "center", lambda alg: [tuple(2 * x for x in z) for z in center(alg)])
    with pytest.raises(RuntimeError, match="internal fault: a vector that must be central is not"):
        obstruction_class(derivations(h), g, abar)


def test_susy_line_graded_betti_numbers():
    # hand computation: L^{1,0} = span(H*), delta H* = -2 (Q,Q)* so no
    # weight-0 classes survive in degrees 1 and 2; Q* is a weight-1 cocycle
    # with nothing to bound it
    g = susy_line()
    mod = trivial_module(g)
    h0 = cohomology_space(g, mod, 0)
    assert (h0.weight(0).dim, h0.weight(1).dim) == (1, 0)
    h1 = cohomology_space(g, mod, 1)
    assert (h1.weight(0).dim, h1.weight(1).dim) == (0, 1)
    reps = h1.weight(1).representatives
    assert len(reps) == 1 and reps[0].value((1,)) == (1,)   # the dual of Q
    h2 = cohomology_space(g, mod, 2)
    assert (h2.weight(0).dim, h2.weight(1).dim) == (0, 0)


# ---------- self-checks and non-integral structure constants ----------

def test_closed_form_dimension_check_fires(monkeypatch):
    from superext import cohomology as coh

    g = sl2()
    differential_matrix = coh.differential_matrix

    def one_column_short(*args):
        rows, src, dst, scale = differential_matrix(*args)
        return rows, src[:-1], dst, scale

    monkeypatch.setattr(coh, "differential_matrix", one_column_short)
    with pytest.raises(RuntimeError, match=r"internal fault: dim C\^2 of weight 0 is not its"):
        cohomology_space(g, trivial_module(g), 2)


def test_coboundaries_outside_the_cocycles_fire(monkeypatch):
    # H^2(sl2) = 0, so every 2-cocycle is a coboundary; a kernel basis that
    # loses a vector no longer contains the coboundaries
    from superext import cohomology as coh

    g = sl2()

    class OneShort(coh.IncrementalSpan):
        def kernel(self, ncols):
            return super().kernel(ncols)[1:]

    monkeypatch.setattr(coh, "IncrementalSpan", OneShort)
    with pytest.raises(RuntimeError, match="internal fault: a coboundary of degree 2"):
        cohomology_space(g, trivial_module(g), 2)


def rescaled(alg, scales):
    """The algebra in the basis f_i = s_i e_i, whose constants are s_i s_j / s_k c^k_ij."""
    return make_algebra(alg.space, {
        (i, j): tuple(scales[i] * scales[j] / scales[k] * c for k, c in enumerate(v))
        for i, row in enumerate(alg.brackets) for j, v in enumerate(row) if any(v)
    })


def test_rescaled_osp12_has_the_weight_dimensions_of_osp12():
    g = osp12()
    s = rescaled(g, (F(1, 2), F(3), F(2, 7), F(5, 3), F(-4, 5)))
    assert validate_algebra(s).ok
    assert any(c.denominator != 1 for row in s.brackets for v in row for c in v)

    def adjoint(a):
        return gmodule(a, a.space, tuple(ad(a, unit_vec(a.dim, i)) for i in range(a.dim)))

    for module, top in ((trivial_module, 4), (adjoint, 2)):
        for n in range(top + 1):
            want = cohomology_space(g, module(g), n)
            got = cohomology_space(s, module(s), n)
            assert [w.dim for w in got.weights] == [w.dim for w in want.weights]
            assert [w.dim_cocycles for w in got.weights] == [w.dim_cocycles for w in want.weights]
            for w in got.weights:
                assert all(type(x) is Fraction for v in w.representative_coords
                           for x in v.values())
