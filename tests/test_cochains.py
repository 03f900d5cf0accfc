"""Sign machinery, cochain evaluation, wedge, bracket and the differentials."""

import gc
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from superext.catalog import abelian, gl11, heis3, osp12, sl2, susy_line
from superext.cochains import (
    TRIVIAL_LINE,
    Cochain,
    canonical_tuples,
    chevalley_delta,
    compose_perms,
    covariant_delta,
    make_cochain,
    multigraded_sign,
    nr_bracket,
    permute_word,
    wedge,
    zero_ops,
)
from superext.gvs import SuperVectorSpace, unit_vec, vec_scale
from superext.superlie import ad
from superext.extensions import trivial_datum, transform_datum

from oracles import (
    block_sign,
    evaluate_vectors,
    full_sum_bracket,
    full_sum_wedge,
    random_cochain,
    random_witness,
    recursive_canonical_tuples,
    scalar_cochain,
    zero_cochain,
)

F = Fraction


# ---------- construction ----------

@pytest.mark.parametrize("weight", [1.0, True, Fraction(0)])
def test_cochain_rejects_non_integer_weight(weight):
    sp = SuperVectorSpace(("x",), (0,))
    with pytest.raises(ValueError, match="weight must be 0 or 1"):
        Cochain(sp, sp, 1, weight, ())


# ---------- multigraded sign ----------

def test_sign_identity_permutation():
    for k in range(5):
        for x in product((0, 1), repeat=k):
            assert multigraded_sign(tuple(range(k)), x) == 1


def test_sign_adjacent_swaps():
    # -(-1)^{x_i x_{i+1}}: odd-odd swap is +1, everything else -1
    assert multigraded_sign((1, 0), (1, 1)) == 1
    assert multigraded_sign((1, 0), (0, 1)) == -1
    assert multigraded_sign((1, 0), (1, 0)) == -1
    assert multigraded_sign((1, 0), (0, 0)) == -1


def test_sign_three_cycle_decomposition_free():
    # the product over adjacent swaps is independent of the decomposition;
    # spot value for the 3-cycle sending positions (1,2,3) -> (2,3,1)
    x = (1, 1, 0)
    sigma = (1, 2, 0)
    via_swaps = multigraded_sign(sigma, x)
    assert via_swaps == block_sign(sigma, x)


def test_sign_composition_law_exhaustive():
    for k in range(1, 5):
        perms = list(permutations(range(k)))
        for x in product((0, 1), repeat=k):
            for sigma in perms:
                for tau in perms:
                    lhs = multigraded_sign(compose_perms(sigma, tau), x)
                    rhs = multigraded_sign(sigma, x) * multigraded_sign(tau, permute_word(sigma, x))
                    assert lhs == rhs


def test_sign_matches_block_closed_form():
    for k in range(1, 5):
        for x in product((0, 1), repeat=k):
            for sigma in permutations(range(k)):
                assert multigraded_sign(sigma, x) == block_sign(sigma, x)


def test_sign_rejects_bad_input():
    with pytest.raises(ValueError):
        multigraded_sign((0, 0), (0, 0))
    with pytest.raises(ValueError):
        multigraded_sign((0, 1), (0,))


# ---------- canonical tuples and evaluation ----------

def test_canonical_tuples_mixed():
    sp = SuperVectorSpace(("a", "q"), (0, 1))
    assert canonical_tuples(sp, 2) == [(0, 1), (1, 1)]
    assert canonical_tuples(sp, 3) == [(0, 1, 1), (1, 1, 1)]


def test_canonical_tuples_match_recursive_oracle(corpus):
    interleaved = SuperVectorSpace(("q", "a", "r", "b", "s"), (1, 0, 1, 0, 1))
    for space in [*(g.space for g in corpus.values()), osp12().space, interleaved]:
        for arity in range(7):
            assert canonical_tuples(space, arity) == recursive_canonical_tuples(space, arity)


def test_canonical_tuples_leave_no_cyclic_garbage():
    space = osp12().space
    gc.collect()
    gc.disable()
    try:
        canonical_tuples(space, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_even_swap_negates():
    sp = SuperVectorSpace(("a", "b"), (0, 0))
    tgt = SuperVectorSpace(("w",), (0,))
    phi = make_cochain(sp, tgt, 2, 0, {(0, 1): (1,)})
    assert phi.evaluate((1, 0)) == (-1,)


def test_evaluate_odd_swap_keeps_sign():
    sp = SuperVectorSpace(("q", "r"), (1, 1))
    tgt = SuperVectorSpace(("w",), (0,))
    phi = make_cochain(sp, tgt, 2, 0, {(0, 1): (1,)})
    assert phi.evaluate((1, 0)) == (1,)


def test_evaluate_repeated_even_is_zero():
    sp = SuperVectorSpace(("a", "b"), (0, 0))
    tgt = SuperVectorSpace(("w",), (0,))
    phi = make_cochain(sp, tgt, 2, 0, {(0, 1): (1,)})
    assert phi.evaluate((0, 0)) == (0,)


def test_storage_rejects_noncanonical():
    sp = SuperVectorSpace(("a", "b"), (0, 0))
    tgt = SuperVectorSpace(("w",), (0,))
    with pytest.raises(ValueError):
        make_cochain(sp, tgt, 2, 0, {(1, 0): (1,)})
    with pytest.raises(ValueError):
        make_cochain(sp, tgt, 2, 0, {(0, 0): (1,)})


def test_storage_rejects_out_of_range_tuple():
    # the range check runs before the tuple's parities are looked up
    sp = abelian(2, 0).space
    for tup in ((5, 5), (0, 5), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            make_cochain(sp, TRIVIAL_LINE, 2, 0, {tup: (1,)})


def test_storage_rejects_wrong_parity_value():
    sp = SuperVectorSpace(("q",), (1,))
    tgt = SuperVectorSpace(("w", "x"), (0, 1))
    # weight 0 on (q): value must be odd
    with pytest.raises(ValueError):
        make_cochain(sp, tgt, 1, 0, {(0,): (1, 0)})
    make_cochain(sp, tgt, 1, 0, {(0,): (0, 1)})


def test_evaluation_sigma_consistency(rng):
    # evaluate(sigma . tuple) = sign(sigma, parities) * evaluate(tuple)
    g = gl11()
    tgt = SuperVectorSpace(("w", "x"), (0, 1))
    for arity in (2, 3):
        phi = random_cochain(g.space, tgt, arity, rng.randint(0, 1), rng)
        for _ in range(40):
            tup = tuple(rng.randrange(g.dim) for _ in range(arity))
            word = tuple(g.space.parities[i] for i in tup)
            sigma = list(range(arity))
            rng.shuffle(sigma)
            permuted = tuple(tup[sigma[i]] for i in range(arity))
            s = multigraded_sign(tuple(sigma), word)
            assert phi.evaluate(permuted) == vec_scale(F(s), phi.evaluate(tup))


# ---------- wedge ----------

def test_wedge_unit():
    g = susy_line()
    one = scalar_cochain(g.space, 0, 0, {(): 1})
    phi = random_cochain(g.space, g.space, 2, 0, random.Random(5))
    assert wedge(one, phi) == phi


def test_wedge_classical_two_forms():
    g = abelian(2, 0)
    psi = scalar_cochain(g.space, 1, 0, {(0,): 2})
    phi = make_cochain(g.space, g.space, 1, 0, {(1,): (1, 0)})
    w = wedge(psi, phi)
    # (psi ^ phi)(X, Y) = psi(X) phi(Y) - psi(Y) phi(X)
    assert w.evaluate((0, 1)) == (2, 0)
    assert w.evaluate((1, 0)) == (-2, 0)


def test_wedge_odd_square_doubles():
    # arity-1 scalar forms on one odd generator: the full S2 sum gives
    # -2 psi(Q) phi(Q) on (Q, Q); checked against the symmetrization oracle
    g = abelian(0, 1)
    psi = scalar_cochain(g.space, 1, 1, {(0,): 1})
    phi = make_cochain(g.space, TRIVIAL_LINE, 1, 1, {(0,): (1,)})
    w = wedge(psi, phi)
    oracle = full_sum_wedge(psi, phi)
    assert w == oracle
    assert w.evaluate((0, 0)) == (-2,)


def test_wedge_equals_full_symmetrization(rng):
    for g in (gl11(), abelian(1, 1), susy_line()):
        tgt = SuperVectorSpace(("w", "x"), (0, 1))
        for q, p in ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2)):
            for wz, wy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                psi = random_cochain(g.space, TRIVIAL_LINE, q, wz, rng)
                phi = random_cochain(g.space, tgt, p, wy, rng)
                assert wedge(psi, phi) == full_sum_wedge(psi, phi)


def test_wedge_rejects_vector_valued_left():
    g = susy_line()
    phi = random_cochain(g.space, g.space, 1, 0, random.Random(1))
    with pytest.raises(ValueError):
        wedge(phi, phi)


# ---------- nr bracket ----------

def test_bracket_abelian_target_zero(rng):
    g, h = susy_line(), abelian(1, 1)
    f1 = random_cochain(g.space, h.space, 1, 0, rng)
    f2 = random_cochain(g.space, h.space, 2, 1, rng)
    assert nr_bracket(f1, f2, h).is_zero()


def test_bracket_arity_zero_is_plain_bracket(rng):
    g, h = abelian(1, 0), sl2()
    f1 = make_cochain(g.space, h.space, 0, 0, {(): (1, 0, 0)})
    f2 = make_cochain(g.space, h.space, 0, 0, {(): (0, 1, 0)})
    br = nr_bracket(f1, f2, h)
    assert br.value(()) == h.bracket_vec((1, 0, 0), (0, 1, 0))


def test_bracket_square_of_curvature_type_vanishes(rng):
    # bidegree (2,0): [rho, rho] = -(-1)^{2*2+0*0} [rho, rho] = -[rho, rho]
    for g, h in ((abelian(2, 0), sl2()), (gl11(), heis3())):
        rho = random_cochain(g.space, h.space, 2, 0, rng)
        assert nr_bracket(rho, rho, h).is_zero()


def test_bracket_equals_full_symmetrization(rng):
    for g, h in ((abelian(1, 1), gl11()), (susy_line(), sl2())):
        for p, q in ((0, 1), (1, 1), (1, 2), (2, 1)):
            for wy, wz in ((0, 0), (1, 0), (0, 1)):
                f1 = random_cochain(g.space, h.space, p, wy, rng)
                f2 = random_cochain(g.space, h.space, q, wz, rng)
                assert nr_bracket(f1, f2, h) == full_sum_bracket(f1, f2, h)


def test_bracket_graded_antisymmetry(rng):
    g, h = abelian(1, 1), gl11()
    for _ in range(15):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
        y1, y2 = rng.randint(0, 1), rng.randint(0, 1)
        f1 = random_cochain(g.space, h.space, p1, y1, rng)
        f2 = random_cochain(g.space, h.space, p2, y2, rng)
        lhs = nr_bracket(f1, f2, h)
        rhs = nr_bracket(f2, f1, h).scale(-((-1) ** (p1 * p2 + y1 * y2)))
        assert lhs == rhs


def test_bracket_graded_jacobi(rng):
    g, h = abelian(1, 1), gl11()
    for _ in range(12):
        ps = [rng.randint(0, 2) for _ in range(3)]
        if sum(ps) > 6:
            continue
        ws = [rng.randint(0, 1) for _ in range(3)]
        fs = [random_cochain(g.space, h.space, p, w, rng) for p, w in zip(ps, ws)]
        acc = None
        order = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        for (a, b, c) in order:
            sign = (-1) ** (ps[a] * ps[c] + ws[a] * ws[c])
            term = nr_bracket(fs[a], nr_bracket(fs[b], fs[c], h), h).scale(sign)
            acc = term if acc is None else acc + term
        assert acc.is_zero()


# ---------- chevalley delta ----------

def test_delta_abelian_source_vanishes(rng):
    g = abelian(2, 1)
    psi = random_cochain(g.space, TRIVIAL_LINE, 2, 0, rng)
    assert chevalley_delta(g, psi).is_zero()


def test_delta_sl2_dual_of_cartan():
    s = sl2()
    phi = scalar_cochain(s.space, 1, 0, {(0,): 1})   # dual of H
    d = chevalley_delta(s, phi)
    # (d phi)(E, F) = -phi([E, F]) = -1
    assert d.evaluate((1, 2)) == (-1,)


def test_delta_susy_dual_of_center():
    s = susy_line()
    phi = scalar_cochain(s.space, 1, 0, {(0,): 1})   # dual of H
    d = chevalley_delta(s, phi)
    # (d phi)(Q,Q) = -phi([Q,Q]) = -2 under the all-preceding-parities convention
    assert d.evaluate((1, 1)) == (-2,)
    assert chevalley_delta(s, d).is_zero()


def test_delta_squared_zero_trivial_coefficients(corpus, rng):
    for alg in corpus.values():
        for arity in (0, 1, 2):
            for w in (0, 1):
                psi = random_cochain(alg.space, TRIVIAL_LINE, arity, w, rng)
                assert chevalley_delta(alg, chevalley_delta(alg, psi)).is_zero()


# ---------- covariant delta ----------

def test_covariant_zero_everything():
    g, h = abelian(1, 0), abelian(1, 0, "w")
    phi = zero_cochain(g.space, h.space, 1, 0)
    assert covariant_delta(g, zero_ops(g.space, h.space), phi).is_zero()


def test_covariant_reduces_to_chevalley(rng):
    g, h = sl2(), sl2()
    phi = random_cochain(g.space, h.space, 2, 0, rng)
    assert covariant_delta(g, zero_ops(g.space, h.space), phi) == chevalley_delta(g, phi)


def test_covariant_classical_arity_one():
    # purely even, p = 1: (d phi)(X0, X1) = a_X0 phi(X1) - a_X1 phi(X0) - phi([X0, X1])
    g = heis3()
    h = abelian(2, 0, "m")
    rng = random.Random(3)
    ops = tuple(
        ad(h, (0, 0), degree=0) for _ in range(3)
    )
    # use a genuine action: P acts by a nilpotent matrix N, Q and Z by 0
    from superext.gvs import GradedLinearMap, linear_map
    N = linear_map(h.space, h.space, 0, ((0, 1), (0, 0)))
    Z0 = GradedLinearMap.zero(h.space, h.space, 0)
    ops = (N, Z0, Z0)
    phi = random_cochain(g.space, h.space, 1, 0, rng)
    d = covariant_delta(g, ops, phi)
    for x0 in range(3):
        for x1 in range(3):
            lhs = d.evaluate((x0, x1))
            rhs = ops[x0].apply(phi.evaluate((x1,)))
            rhs = tuple(a - b for a, b in zip(rhs, ops[x1].apply(phi.evaluate((x0,)))))
            rhs = tuple(a - b for a, b in zip(rhs, evaluate_vectors(phi, [g.brackets[x0][x1]])))
            assert lhs == rhs


def test_covariant_delta_on_zero_cochain():
    # arity-0 cochain: (d phi)(X0) = (-1)^{x0 y} a_X0 (phi()); with zero action it is 0
    g, h = susy_line(), abelian(1, 0, "w")
    phi = make_cochain(g.space, h.space, 0, 0, {(): (1,)})
    assert covariant_delta(g, zero_ops(g.space, h.space), phi).is_zero()


def test_covariant_rejects_wrong_degree():
    g, h = susy_line(), abelian(1, 1, "w")
    ops = (ad(h, (0, 0), degree=0), ad(h, (0, 0), degree=0))  # slot 1 needs degree 1
    phi = zero_cochain(g.space, h.space, 1, 0)
    with pytest.raises(ValueError):
        covariant_delta(g, ops, phi)


# ---------- the square identity and Leibniz ----------

def _random_datum_with_section_flavor(g, h, rng):
    d = trivial_datum(g, h)
    return transform_datum(d, random_witness(g, h, rng))


def test_square_identity_on_transformed_data(rng):
    # delta_alpha delta_alpha Phi = [rho, Phi] for data moved by random witnesses
    cases = [(abelian(1, 1, "t"), gl11()), (abelian(2, 0, "t"), sl2()),
             (abelian(0, 2, "t"), susy_line()), (susy_line(), gl11())]
    for g, h in cases:
        for _ in range(6):
            d = _random_datum_with_section_flavor(g, h, rng)
            for arity in (0, 1, 2):
                for w in (0, 1):
                    phi = random_cochain(g.space, h.space, arity, w, rng)
                    lhs = covariant_delta(g, d.alpha, covariant_delta(g, d.alpha, phi))
                    rhs = nr_bracket(d.rho, phi, h)
                    assert lhs == rhs


def test_leibniz_rule(rng):
    cases = [(abelian(1, 1, "t"), gl11()), (susy_line(), sl2())]
    for g, h in cases:
        for _ in range(4):
            d = _random_datum_with_section_flavor(g, h, rng)
            for q in (0, 1, 2):
                for z in (0, 1):
                    psi = random_cochain(g.space, TRIVIAL_LINE, q, z, rng)
                    for p, y in ((1, 0), (2, 1), (0, 1)):
                        phi = random_cochain(g.space, h.space, p, y, rng)
                        lhs = covariant_delta(g, d.alpha, wedge(psi, phi))
                        rhs = wedge(chevalley_delta(g, psi), phi) \
                            + wedge(psi, covariant_delta(g, d.alpha, phi)).scale((-1) ** q)
                        assert lhs == rhs


def test_classical_reduction_all_even(rng):
    # purely even + alpha a homomorphism: the square is zero (classical complex)
    g, h = sl2(), sl2()
    ops = tuple(ad(h, unit_vec(3, i)) for i in range(3))  # adjoint action
    for arity in (0, 1, 2):
        phi = random_cochain(g.space, h.space, arity, 0, rng)
        assert covariant_delta(g, ops, covariant_delta(g, ops, phi)).is_zero()


def test_cochain_arithmetic(rng):
    g, h = susy_line(), gl11()
    a = random_cochain(g.space, h.space, 2, 0, rng)
    b = random_cochain(g.space, h.space, 2, 0, rng)
    assert (a + b) - b == a
    assert a.scale(F(1, 2)).scale(2) == a
    assert (a - a).is_zero()


def test_evaluate_index_out_of_range():
    g = susy_line()
    phi = random_cochain(g.space, g.space, 1, 0, random.Random(0))
    with pytest.raises(IndexError):
        phi.evaluate((7,))
    with pytest.raises(ValueError):
        phi.evaluate((0, 1))


def test_bracket_laws_over_random_target_algebras(rng):
    # graded antisymmetry of the wedge bracket over randomized valid
    # target algebras of dim <= 4 (central extensions moved by witnesses)
    from superext.extensions import build_extension
    from oracles import random_valid_datum
    from superext.catalog import abelian
    g = abelian(1, 1, "t")
    pairs = [(abelian(1, 0, "x"), abelian(2, 0, "z")),
             (abelian(0, 1, "x"), abelian(1, 1, "z")),
             (abelian(2, 0, "x"), abelian(1, 0, "z"))]
    for gg, hh in pairs:
        for _ in range(3):
            target = build_extension(random_valid_datum(gg, hh, rng)).e
            assert target.dim <= 4
            for _ in range(4):
                p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
                y1, y2 = rng.randint(0, 1), rng.randint(0, 1)
                f1 = random_cochain(g.space, target.space, p1, y1, rng)
                f2 = random_cochain(g.space, target.space, p2, y2, rng)
                lhs = nr_bracket(f1, f2, target)
                rhs = nr_bracket(f2, f1, target).scale(-((-1) ** (p1 * p2 + y1 * y2)))
                assert lhs == rhs


def test_canonical_tuple_counts_match_binomial_formula():
    # independent combinatorics: choosing k distinct evens and a multiset
    # of odds gives sum_k C(e, k) * C(o + p - k - 1, p - k)
    from math import comb
    from superext.gvs import SuperVectorSpace

    def multichoose(n, m):
        return 1 if m == 0 else comb(n + m - 1, m)

    for e, o in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        sp = SuperVectorSpace(
            tuple(f"x{i}" for i in range(e + o)), tuple([0] * e + [1] * o))
        for p in range(0, 6):
            want = sum(comb(e, k) * multichoose(o, p - k)
                       for k in range(0, min(e, p) + 1))
            assert len(canonical_tuples(sp, p)) == want, (e, o, p)
