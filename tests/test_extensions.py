"""Extraction of data from sections, rebuilding, moves, witnesses, pullbacks."""

from fractions import Fraction

import pytest

from superext.catalog import abelian, gl11, heis3, osp12, sl2, susy_line
from superext.cochains import make_cochain
from superext.gvs import GradedLinearMap, linear_map, unit_vec
from superext.superlie import (
    ad,
    algebra_from_table,
    center,
    derivations,
    direct_sum,
    is_homomorphism,
    out_quotient,
    validate_algebra,
)
from superext.extensions import (
    ExtensionDatum,
    ExtensionTriple,
    build_extension,
    canonical_section,
    check_datum,
    check_equivalence_witness,
    check_split_witness,
    induced_data,
    pullback_extension,
    raw_extension_algebra,
    same_structure,
    solve_split_abelian,
    transform_datum,
    trivial_datum,
    validate_triple,
)

from oracles import (
    brute_jacobi,
    derivation_algebra,
    graded_commutator,
    normalized_structure,
    product_bracket,
    pullback_members,
    random_extension,
    random_section,
    random_valid_datum,
    random_witness,
)
from test_structure_constants import rescaled

F = Fraction


def susy_datum():
    from superext.superlie import abelian_algebra
    g = abelian_algebra(("Q",), (1,))
    h = abelian_algebra(("H",), (0,))
    rho = make_cochain(g.space, h.space, 2, 0, {(0, 0): (2,)})
    return ExtensionDatum(g, h, trivial_datum(g, h).alpha, rho)


def heis_datum():
    g = abelian(2, 0, "u")
    h = abelian(1, 0, "Z")
    rho = make_cochain(g.space, h.space, 2, 0, {(0, 1): (1,)})
    return ExtensionDatum(g, h, trivial_datum(g, h).alpha, rho)


EXTENSION_POOL = [
    (abelian(0, 1, "Q"), abelian(1, 0, "H")),
    (abelian(2, 0, "u"), abelian(1, 0, "Z")),
    (abelian(1, 1, "t"), gl11()),
    (susy_line(), sl2()),
    (abelian(1, 0, "t"), heis3()),
    (abelian(0, 2, "q"), abelian(1, 1, "m")),
]


# ---------- induced_data ----------

def test_induced_split_case():
    g, h = sl2(), heis3()
    t = build_extension(trivial_datum(g, h))
    d = induced_data(t)
    assert d.rho.is_zero()
    assert all(op.is_zero() for op in d.alpha)


def test_induced_susy_line():
    d = susy_datum()
    t = build_extension(d)
    back = induced_data(t)
    assert back == d
    assert back.rho.value((0, 0)) == (2,)


def test_induced_heis3():
    d = heis_datum()
    t = build_extension(d)
    back = induced_data(t)
    assert back.rho.value((0, 1)) == (1,)


def test_induced_rejects_non_section():
    d = susy_datum()
    t = build_extension(d)
    bad = GradedLinearMap.zero(t.g.space, t.e.space, 0)
    with pytest.raises(ValueError):
        induced_data(t, bad)


def test_induced_data_conditions_hold_for_every_section(rng):
    # identities (connection/curvature compatibility) for 20 random sections
    # of every pool extension; two sections differ by the expected move
    for g, h in EXTENSION_POOL:
        t = random_extension(g, h, rng)
        base = induced_data(t)
        assert check_datum(base).ok
        for _ in range(20):
            b = random_witness(g, h, rng)
            s2 = t.section + t.incl.compose(b)
            d2 = induced_data(t, s2)
            assert check_datum(d2).ok
            assert transform_datum(base, b) == d2


# ---------- check_datum ----------

def test_check_trivial_datum_passes():
    g, h = abelian(1, 1), gl11()
    assert check_datum(trivial_datum(g, h)).ok


def test_check_susy_datum_passes():
    assert check_datum(susy_datum()).ok


def test_check_flags_non_derivation_alpha():
    g, h = abelian(1, 0, "t"), heis3()
    # a map that is not a derivation of heis3: P -> P alone
    bad_op = linear_map(h.space, h.space, 0, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    d = ExtensionDatum(g, h, (bad_op,), make_cochain(g.space, h.space, 2, 0))
    rep = check_datum(d)
    assert not rep.derivation_ok[0]
    assert not rep.ok
    assert any("not a graded derivation" in f for f in rep.failures)


def test_check_flags_commutator_defect():
    # alpha = 0 but rho with non-central values: ad_rho != 0 = [alpha,alpha]
    g, h = abelian(2, 0, "u"), heis3()
    rho = make_cochain(g.space, h.space, 2, 0, {(0, 1): (1, 0, 0)})  # P: not central
    d = ExtensionDatum(g, h, trivial_datum(g, h).alpha, rho)
    rep = check_datum(d)
    assert not rep.commutator_defect_ok


def test_check_flags_cyclic_curvature():
    # g of dim 3 so the genuinely cyclic condition bites: pick rho failing it
    g, h = abelian(3, 0, "u"), abelian(1, 0, "Z")
    # alpha nonzero on u0 only; rho(u1,u2) = Z: cyclic sum = alpha_{u0} Z != 0
    op = linear_map(h.space, h.space, 0, ((1,),))
    zero = GradedLinearMap.zero(h.space, h.space, 0)
    rho = make_cochain(g.space, h.space, 2, 0, {(1, 2): (1,)})
    d = ExtensionDatum(g, h, (op, zero, zero), rho)
    rep = check_datum(d)
    assert rep.derivation_ok == (True, True, True)
    assert rep.commutator_defect_ok  # h abelian: ad = 0 = defect (alphas commute)
    assert not rep.cyclic_curvature_ok


def test_check_datum_needs_a_degree_zero_bracket():
    # delta_alpha rho is read from covariant_delta, which refuses a bracket
    # that leaves the cochain space; the CLI and classify validate g first
    g = algebra_from_table(("H", "Q"), (0, 1), {("Q", "Q"): {"Q": 1}})
    assert not validate_algebra(g).degree_zero
    with pytest.raises(ValueError, match="the bracket is not degree 0"):
        check_datum(trivial_datum(g, abelian(1, 0, "Z")))


# ---------- build_extension ----------

def test_build_trivial_direct_sum():
    g, h = abelian(1, 1, "t"), abelian(1, 0, "w")
    t = build_extension(trivial_datum(g, h))
    assert t.e.is_abelian()
    assert validate_triple(t)


def test_build_susy_line_exact_constants():
    t = build_extension(susy_datum())
    assert same_structure(t.e, susy_line())
    assert t.e.space.names == ("H", "Q")


def test_build_heisenberg_constants():
    t = build_extension(heis_datum())
    want = heis3()
    # basis order differs (Z first here); compare via the center and bracket
    assert len(center(t.e)) == 1
    assert t.e.bracket_vec(unit_vec(3, 1), unit_vec(3, 2)) == (1, 0, 0)


def test_build_refuses_invalid():
    g, h = abelian(2, 0, "u"), heis3()
    rho = make_cochain(g.space, h.space, 2, 0, {(0, 1): (1, 0, 0)})
    d = ExtensionDatum(g, h, trivial_datum(g, h).alpha, rho)
    with pytest.raises(ValueError):
        build_extension(d)


def test_raw_build_of_broken_datum_fails_jacobi():
    # violating the cyclic curvature condition produces a Jacobi failure
    g, h = abelian(3, 0, "u"), abelian(1, 0, "Z")
    op = linear_map(h.space, h.space, 0, ((1,),))
    zero = GradedLinearMap.zero(h.space, h.space, 0)
    rho = make_cochain(g.space, h.space, 2, 0, {(1, 2): (1,)})
    d = ExtensionDatum(g, h, (op, zero, zero), rho)
    e = raw_extension_algebra(d)
    assert not validate_algebra(e).jacobi
    assert not brute_jacobi(e)


def test_round_trip_datum_to_triple_and_back(rng):
    for g, h in EXTENSION_POOL:
        for _ in range(3):
            d = random_valid_datum(g, h, rng)
            t = build_extension(d)
            assert induced_data(t) == d
            assert brute_jacobi(t.e)


def test_round_trip_triple_to_datum_and_back(rng):
    # rebuilding from the induced datum of the canonical summand section
    # reproduces the same structure constants
    for g, h in EXTENSION_POOL[:4]:
        t = random_extension(g, h, rng)
        d = induced_data(t)
        t2 = build_extension(d)
        assert same_structure(t2.e, t.e)


def test_degenerate_zero_g():
    g, h = abelian(0, 0), sl2()
    t = build_extension(trivial_datum(g, h))
    assert same_structure(t.e, sl2())


def test_degenerate_zero_h():
    g, h = sl2(), abelian(0, 0)
    t = build_extension(trivial_datum(g, h))
    assert same_structure(t.e, sl2())


# ---------- transform_datum ----------

def test_transform_by_zero_is_identity():
    d = susy_datum()
    b = GradedLinearMap.zero(d.g.space, d.h.space, 0)
    assert transform_datum(d, b) == d


def test_transform_abelian_kernel_drops_quadratic_term(rng):
    # h abelian: rho' = rho + delta_alpha b exactly
    from superext.cochains import covariant_delta
    from superext.extensions import witness_cochain
    d = heis_datum()
    for _ in range(10):
        b = random_witness(d.g, d.h, rng)
        moved = transform_datum(d, b)
        assert moved.rho == d.rho + covariant_delta(d.g, d.alpha, witness_cochain(b))
        assert moved.alpha == d.alpha  # ad of anything in an abelian h is 0


def test_transform_heis3_kernel_central_witness():
    # b into the center of heis3 leaves alpha unchanged
    g, h = abelian(1, 0, "t"), heis3()
    d = trivial_datum(g, h)
    b = linear_map(g.space, h.space, 0, ((0,), (0,), (1,)))  # t -> Z
    moved = transform_datum(d, b)
    assert moved.alpha == d.alpha
    # with abelian g and alpha = 0 the curvature is unchanged too
    assert moved.rho == d.rho


def test_transform_preserves_validity_and_gives_isomorphism(rng):
    for g, h in EXTENSION_POOL:
        d = random_valid_datum(g, h, rng)
        b = random_witness(g, h, rng)
        d2 = transform_datum(d, b)
        assert check_datum(d2).ok
        e1, e2 = build_extension(d), build_extension(d2)
        # H + X -> H - b(X) + X
        nh, ng = h.dim, g.dim
        rows = []
        for r in range(nh):
            rows.append(tuple(F(1 if c == r else 0) for c in range(nh))
                        + tuple(-b.matrix[r][c] for c in range(ng)))
        for r in range(ng):
            rows.append(tuple(F(0) for _ in range(nh))
                        + tuple(F(1 if c == r else 0) for c in range(ng)))
        iso = linear_map(e1.e.space, e2.e.space, 0, tuple(rows))
        assert is_homomorphism(iso, e1.e, e2.e)
        from oracles import dense_rref
        assert len(dense_rref(iso.matrix)[1]) == e1.e.dim  # invertible


def test_two_sections_differ_by_witness(rng):
    for g, h in EXTENSION_POOL[:4]:
        t = random_extension(g, h, rng)
        s1 = random_section(t, rng)
        s2 = random_section(t, rng)
        d1, d2 = induced_data(t, s1), induced_data(t, s2)
        # the difference of sections lands in the kernel: b = incl^{-1}(s2 - s1)
        from superext.gvs import LinearSystem
        cols = []
        for j in range(g.dim):
            w = tuple(x - y for x, y in zip(s2.column(j), s1.column(j)))
            v = LinearSystem(map(t.incl.column, range(h.dim)), t.e.dim).solve(w)
            assert v is not None
            cols.append(v)
        b = linear_map(g.space, h.space, 0,
                       tuple(tuple(cols[j][i] for j in range(g.dim))
                             for i in range(h.dim)))
        assert transform_datum(d1, b) == d2
        assert check_equivalence_witness(d1, d2, b)


# ---------- equivalence witnesses ----------

def test_equivalence_witness_identity():
    d = susy_datum()
    assert check_equivalence_witness(d, d, GradedLinearMap.zero(d.g.space, d.h.space, 0))


def test_equivalence_witness_by_construction(rng):
    for g, h in EXTENSION_POOL[:4]:
        d = random_valid_datum(g, h, rng)
        b = random_witness(g, h, rng)
        assert check_equivalence_witness(d, transform_datum(d, b), b)


def test_susy_scaling_rigidity():
    # parity forces b = 0, so rho = 2H and rho = 4H are inequivalent
    d2 = susy_datum()
    g, h = d2.g, d2.h
    d4 = ExtensionDatum(g, h, d2.alpha,
                        make_cochain(g.space, h.space, 2, 0, {(0, 0): (4,)}))
    # the only degree-0 map g -> h is zero (odd source, even target)
    b = GradedLinearMap.zero(g.space, h.space, 0)
    assert not check_equivalence_witness(d2, d4, b)
    with pytest.raises(ValueError):
        linear_map(g.space, h.space, 0, ((1,),))  # no nonzero b exists at all


def test_equivalence_rejects_mismatched_algebras():
    d1 = susy_datum()
    d2 = heis_datum()
    b = GradedLinearMap.zero(d1.g.space, d1.h.space, 0)
    with pytest.raises(ValueError):
        check_equivalence_witness(d1, d2, b)


# ---------- split witnesses ----------

def test_split_witness_zero_on_flat_datum():
    g, h = abelian(1, 1), gl11()
    d = trivial_datum(g, h)
    assert check_split_witness(d, GradedLinearMap.zero(g.space, h.space, 0))


def test_split_witness_recovered_from_transform(rng):
    # d = transform of a split datum by b0: then -b0 is a splitting witness
    for g, h in EXTENSION_POOL[:4]:
        flat = trivial_datum(g, h)
        b0 = random_witness(g, h, rng)
        d = transform_datum(flat, b0)
        assert check_split_witness(d, b0)


def test_heisenberg_never_splits(rng):
    d = heis_datum()
    assert solve_split_abelian(d) is None
    for _ in range(10):
        b = random_witness(d.g, d.h, rng)
        assert not check_split_witness(d, b)


def test_solve_split_abelian_finds_witness(rng):
    # sl2 rescaled has the denominator 3: the rows of delta_alpha carry a
    # scale, which the right-hand side must share
    for g, h in ((sl2(), abelian(1, 0, "w")), (susy_line(), abelian(1, 1, "m")),
                 (rescaled(sl2(), (1, 2, Fraction(1, 3))), abelian(1, 0, "w"))):
        flat = trivial_datum(g, h)
        b0 = random_witness(g, h, rng)
        d = transform_datum(flat, b0)
        b = solve_split_abelian(d)
        assert b is not None
        assert check_split_witness(d, b.scale(-1)) or check_split_witness(d, b)


def test_solve_split_zero_curvature():
    g, h = sl2(), abelian(1, 0, "w")
    d = trivial_datum(g, h)
    b = solve_split_abelian(d)
    assert b is not None and b.is_zero()


def test_split_checks_refuse_a_datum_that_fails_check_datum():
    # alpha on the abelian h = g: [alpha_u0, alpha_u1] = alpha_u1 is not
    # ad of rho = 0, so the datum defines no extension and no witness can
    # split it; both checks name check_datum's first failure
    g = h = abelian(2, 0, "u")
    alpha = tuple(linear_map(h.space, h.space, 0, m) for m in (((1, 0), (0, 0)), ((0, 1), (0, 0))))
    d = ExtensionDatum(g, h, alpha, make_cochain(g.space, h.space, 2, 0))
    first = check_datum(d).failures[0]
    assert first == "commutator defect on (u0,u1) is not ad of the curvature"
    with pytest.raises(ValueError, match=r"fails the extension conditions: commutator defect on \(u0,u1\)"):
        check_split_witness(d, GradedLinearMap.zero(g.space, h.space, 0))
    with pytest.raises(ValueError, match=r"fails the extension conditions: commutator defect on \(u0,u1\)"):
        solve_split_abelian(d)


def test_solve_split_requires_abelian():
    g, h = abelian(1, 0), sl2()
    with pytest.raises(ValueError):
        solve_split_abelian(trivial_datum(g, h))


# ---------- sections ----------

def test_canonical_section_is_section(rng):
    for g, h in EXTENSION_POOL[:4]:
        t = random_extension(g, h, rng)
        s = canonical_section(t)
        assert t.proj.compose(s) == GradedLinearMap.identity_map(g.space)
        assert s.degree == 0


# ---------- pullback ----------

def test_pullback_sl2_direct_sum():
    h = sl2()
    out_alg, _ = out_quotient(h)
    for g in (abelian(1, 0, "t"), sl2()):
        abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
        t = pullback_extension(h, g, abar)
        assert validate_triple(t)
        assert same_structure(normalized_structure(t),
                              build_extension(trivial_datum(g, h)).e)


def test_pullback_induces_abar():
    # the projected connection of the carried section equals abar
    h = direct_sum(sl2(), sl2())
    assert center(h) == []
    out_alg, pi = out_quotient(h)
    g = abelian(1, 0, "t")
    from superext.superlie import derivations
    ds = derivations(h)
    assert out_alg.dim == 0  # semisimple: still all inner
    abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
    t = pullback_extension(h, g, abar)
    d = induced_data(t)
    assert check_datum(d).ok


def _sl2_semidirect_plane():
    """sl(2) acting on its natural 2-dim module: centerless, out of dim 1."""
    from superext.superlie import algebra_from_table
    return algebra_from_table(
        ("H", "E", "F", "x", "y"), (0, 0, 0, 0, 0),
        {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1},
         ("H", "x"): {"x": 1}, ("H", "y"): {"y": -1},
         ("E", "y"): {"x": 1}, ("F", "x"): {"y": 1}},
    )


def test_pullback_nonzero_outer_action():
    h = _sl2_semidirect_plane()
    assert validate_algebra(h).ok and center(h) == []
    out_alg, _ = out_quotient(h)
    assert out_alg.dim == 1  # the scaling of the module part
    g = abelian(1, 0, "t")
    abar = linear_map(g.space, out_alg.space, 0, ((F(1),),))
    t = pullback_extension(h, g, abar)
    assert validate_triple(t)
    d = induced_data(t)
    assert check_datum(d).ok
    assert not all(op.is_zero() for op in d.alpha)


@pytest.mark.parametrize("case", ["sl2", "osp12", "sl2+sl2", "semidirect"])
def test_pullback_matches_product_bracket_oracle(case):
    # e's bracket, carried into der(h) x g through the triple's own maps,
    # is the product bracket summed over der(h)'s full bracket table
    h, g = {"sl2": (sl2(), sl2()), "osp12": (osp12(), abelian(1, 1, "t")),
            "sl2+sl2": (direct_sum(sl2(), sl2()), abelian(1, 0, "t")),
            "semidirect": (_sl2_semidirect_plane(), abelian(1, 0, "t"))}[case]
    ds = derivations(h)
    abar = GradedLinearMap.zero(g.space, ds.out.space, 0)
    if case == "semidirect":  # the one case with nonzero out(h) and nonzero abar
        abar = linear_map(g.space, ds.out.space, 0, ((F(1),),))
    t = pullback_extension(h, g, abar)
    der_alg = derivation_algebra(ds)
    members = pullback_members(t, ds, abar)
    for a, u in enumerate(members):
        for b, v in enumerate(members):
            got = [F(0)] * len(u)
            for c, x in enumerate(t.e.brackets[a][b]):
                got = [y + x * w for y, w in zip(got, members[c])]
            assert tuple(got) == product_bracket(der_alg, g, u, v), (case, a, b)


def test_pullback_eliminates_nothing_beyond_der_coordinates(monkeypatch):
    # e's basis is read off der(h)'s inner-first coordinates: on a caller's
    # der(h) whose out(h) has been read, the pullback builds no LinearSystem
    # and solves no kernel, and the centerless test is inner_count == dim h
    import sys
    from superext import gvs, superlie

    h = _sl2_semidirect_plane()
    ds = derivations(h)
    g = abelian(1, 0, "t")
    abar = linear_map(g.space, ds.out.space, 0, ((F(1),),))
    counts = {"LinearSystem": 0, "IncrementalSpan.kernel": 0, "center": 0}
    init, kernel, center = gvs.LinearSystem.__init__, gvs.IncrementalSpan.kernel, superlie.center

    def counter(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(gvs.LinearSystem, "__init__", counter("LinearSystem", init))
    monkeypatch.setattr(gvs.IncrementalSpan, "kernel", counter("IncrementalSpan.kernel", kernel))
    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "superext" and vars(mod).get("center") is center:
            monkeypatch.setattr(mod, "center", counter("center", center))
    t = pullback_extension(ds, g, abar)
    assert counts == {"LinearSystem": 0, "IncrementalSpan.kernel": 0, "center": 0}
    assert t.e.dim == h.dim + g.dim


def test_pullback_rejects_centered_kernel():
    h = heis3()
    out_alg, _ = out_quotient(h)
    g = abelian(1, 0, "t")
    abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
    with pytest.raises(ValueError):
        pullback_extension(h, g, abar)


def test_pullback_rejects_non_homomorphism():
    # out(h) is abelian here, so any nonzero map from the perfect sl2 fails
    h = _sl2_semidirect_plane()
    out_alg, _ = out_quotient(h)
    g = sl2()
    bad = linear_map(g.space, out_alg.space, 0, ((F(1), F(0), F(0)),))
    with pytest.raises(ValueError):
        pullback_extension(h, g, bad)


# ---------- cross-checks of the differential form of the identities ----------

def test_induced_curvature_is_covariantly_closed(rng):
    # the cyclic curvature identity is exactly delta_alpha rho = 0
    from superext.cochains import covariant_delta
    for g, h in EXTENSION_POOL:
        t = random_extension(g, h, rng)
        for _ in range(5):
            d = induced_data(t, random_section(t, rng))
            assert covariant_delta(g, d.alpha, d.rho).is_zero()


def test_ad_is_homomorphism_into_derivations(corpus):
    # ad_[X,Y] = [ad_X, ad_Y] with the graded commutator sign
    for alg in corpus.values():
        n = alg.dim
        for i in range(n):
            for j in range(n):
                lhs = ad(alg, alg.brackets[i][j],
                         degree=(alg.space.parities[i] + alg.space.parities[j]) % 2)
                rhs = graded_commutator(ad(alg, unit_vec(n, i), degree=alg.space.parities[i]),
                                        ad(alg, unit_vec(n, j), degree=alg.space.parities[j]))
                assert lhs == rhs


def test_induced_data_rejects_inexact_sequence():
    # e = heis3 over a FAKE quotient bracket: the curvature leaves span(Z)
    from superext.superlie import algebra_from_table
    e = heis3()
    h = abelian(1, 0, "Z")
    g = algebra_from_table(("u", "v"), (0, 0), {("u", "v"): {"u": 1}})  # wrong bracket
    incl = linear_map(h.space, e.space, 0, ((0,), (0,), (1,)))
    proj = linear_map(e.space, g.space, 0, ((1, 0, 0), (0, 1, 0)))
    sec = linear_map(g.space, e.space, 0, ((1, 0), (0, 1), (0, 0)))
    t = ExtensionTriple(h, g, e, incl, proj, sec)
    with pytest.raises(ValueError, match="outside h"):
        induced_data(t)


def test_heisenberg_split_fails_on_spanning_probe_set():
    d = heis_datum()
    g, h = d.g, d.h
    probes = []
    for k in range(h.dim):
        for j in range(g.dim):
            if h.space.parities[k] == g.space.parities[j]:
                m = [[F(0)] * g.dim for _ in range(h.dim)]
                m[k][j] = F(1)
                probes.append(linear_map(g.space, h.space, 0,
                                         tuple(tuple(r) for r in m)))
    assert probes
    for b in probes:
        assert not check_split_witness(d, b)
    assert solve_split_abelian(d) is None


def test_build_with_clashing_basis_names():
    # h and g sharing basis names: the sum space disambiguates with suffixes
    from superext.superlie import abelian_algebra
    g = abelian_algebra(("X",), (0,))
    h = abelian_algebra(("X",), (0,))
    t = build_extension(trivial_datum(g, h))
    assert t.e.space.names == ("X.h", "X.g")
    assert induced_data(t) == trivial_datum(g, h)
