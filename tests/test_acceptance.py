"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance here is zero: all assertions are exact equalities of
rationals.  Each criterion prints one [acceptance] PASS/FAIL line; the
stated runtime bounds are asserted where the criterion carries one.
"""

import random
import re
import time
from fractions import Fraction
from functools import wraps
from itertools import permutations, product
from pathlib import Path

import pytest

from superext.catalog import abelian, gl11, heis3, sl2, susy_line
from superext.cochains import (
    canonical_tuples,
    compose_perms,
    covariant_delta,
    make_cochain,
    multigraded_sign,
    nr_bracket,
    permute_word,
)
from superext.gvs import GradedLinearMap, linear_map
from superext.superlie import abelian_algebra, ad, center, derivations, out_quotient
from superext.extensions import (
    ExtensionDatum,
    build_extension,
    check_datum,
    check_equivalence_witness,
    induced_data,
    pullback_extension,
    same_structure,
    transform_datum,
    trivial_datum,
    witness_cochain,
)
from superext.cohomology import (
    classify_extensions,
    cohomology_space,
    module_delta,
    obstruction_class,
    trivial_module,
)

from cli_cases import CASES
from cli_run import run_cli
from oracles import (
    brute_jacobi,
    classical_ce_delta,
    normalized_structure,
    random_cochain,
    random_extension,
    random_section,
    random_valid_datum,
    random_witness,
    scalar_cochain,
)

F = Fraction
INPUTS = Path(__file__).parent / "golden" / "inputs"
EXPECTED = Path(__file__).parent / "golden" / "expected"


def criterion(number, label, max_seconds=None):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            if max_seconds is not None and elapsed >= max_seconds:
                print(f"[acceptance] criterion {number} ({label}): FAIL "
                      f"(runtime {elapsed:.2f}s exceeds {max_seconds}s)")
                raise AssertionError(f"runtime bound exceeded: {elapsed:.2f}s")
            print(f"[acceptance] criterion {number} ({label}): PASS "
                  f"({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "sign laws", max_seconds=1.0)
def test_criterion_1_sign_laws():
    for k in range(1, 5):
        perms = list(permutations(range(k)))
        for x in product((0, 1), repeat=k):
            for i in range(k - 1):
                sw = list(range(k))
                sw[i], sw[i + 1] = sw[i + 1], sw[i]
                assert multigraded_sign(tuple(sw), x) == -((-1) ** (x[i] * x[i + 1]))
            for sigma in perms:
                for tau in perms:
                    lhs = multigraded_sign(compose_perms(sigma, tau), x)
                    rhs = multigraded_sign(sigma, x) \
                        * multigraded_sign(tau, permute_word(sigma, x))
                    assert lhs == rhs


@criterion(2, "classical reduction", max_seconds=5.0)
def test_criterion_2_classical_reduction():
    rng = random.Random(2)
    for g in (sl2(), heis3()):
        mod = trivial_module(g)
        for arity in (1, 2, 3):
            table = {t: F(rng.randint(-3, 3)) for t in canonical_tuples(g.space, arity)}
            psi = scalar_cochain(g.space, arity, 0, table)
            ours = module_delta(mod, psi)
            oracle = classical_ce_delta(g, table, arity)
            for tup in canonical_tuples(g.space, arity + 1):
                assert ours.value(tup)[0] == oracle.get(tup, F(0))
    m_sl2 = trivial_module(sl2())
    assert cohomology_space(sl2(), m_sl2, 1).total_dim == 0
    assert cohomology_space(sl2(), m_sl2, 2).total_dim == 0
    a2 = abelian(2, 0)
    assert cohomology_space(a2, trivial_module(a2), 2).weight(0).dim == 1


@criterion(3, "square of the covariant derivative", max_seconds=60.0)
def test_criterion_3_square_identity():
    rng = random.Random(3)
    pool = [
        (abelian_algebra(("Q",), (1,)), abelian_algebra(("H",), (0,))),
        (abelian(2, 0, "u"), abelian(1, 0, "Z")),
        (abelian(0, 1, "q"), gl11()),
        (abelian(0, 2, "q"), abelian(1, 1, "m")),
        (susy_line(), heis3()),
        (abelian(1, 0, "t"), gl11()),
        (abelian(1, 1, "t"), susy_line()),
        (abelian(0, 1, "q"), abelian(2, 1, "m")),
    ]
    checked = 0
    while checked < 100:
        g, h = pool[checked % len(pool)]
        assert g.dim + h.dim <= 5
        t = random_extension(g, h, rng)
        s = random_section(t, rng)
        d = induced_data(t, s)
        for arity in (rng.randint(0, 2), 2):
            w = rng.randint(0, 1)
            phi = random_cochain(g.space, h.space, arity, w, rng)
            lhs = covariant_delta(g, d.alpha, covariant_delta(g, d.alpha, phi))
            rhs = nr_bracket(d.rho, phi, h)
            assert lhs == rhs
        checked += 1
    assert checked >= 100


@criterion(4, "section identities and section moves")
def test_criterion_4_section_identities():
    rng = random.Random(4)
    pool = [
        (abelian_algebra(("Q",), (1,)), abelian_algebra(("H",), (0,))),
        (abelian(2, 0, "u"), abelian(1, 0, "Z")),
        (abelian(1, 1, "t"), gl11()),
        (susy_line(), sl2()),
        (abelian(1, 0, "t"), heis3()),
        (sl2(), abelian(1, 0, "w")),
    ]
    for g, h in pool:
        t = random_extension(g, h, rng)
        base = induced_data(t)
        for _ in range(20):
            b = random_witness(g, h, rng)
            s2 = t.section + t.incl.compose(b)
            d2 = induced_data(t, s2)
            rep = check_datum(d2)
            # the two induced identities hold exactly
            assert rep.commutator_defect_ok
            assert rep.cyclic_curvature_ok
            assert rep.ok
            # sections differing by b are related by the connection move
            # alpha' = alpha + ad_b and the curvature move
            # rho' = rho + delta_alpha b + [b,b]/2
            assert transform_datum(base, b) == d2


@criterion(5, "round trips and the brute-force Jacobi oracle")
def test_criterion_5_round_trips():
    rng = random.Random(5)
    pool = [
        (abelian_algebra(("Q",), (1,)), abelian_algebra(("H",), (0,))),
        (abelian(2, 0, "u"), abelian(1, 0, "Z")),
        (abelian(1, 1, "t"), gl11()),
        (susy_line(), sl2()),
        (abelian(1, 0, "t"), heis3()),
        (abelian(0, 2, "q"), abelian(1, 1, "m")),
    ]
    for g, h in pool:
        for _ in range(3):
            d = random_valid_datum(g, h, rng)
            t = build_extension(d)
            assert induced_data(t) == d                      # datum -> triple -> datum
            assert brute_jacobi(t.e)                         # independent oracle
            t2 = build_extension(induced_data(t))
            assert same_structure(t2.e, t.e)                 # triple -> datum -> triple


@criterion(6, "obstruction pipeline", max_seconds=60.0)
def test_criterion_6_obstruction_pipeline():
    rng = random.Random(6)
    cases = [
        (heis3(), abelian(0, 1, "q")),          # center and outer part both nonzero
        (heis3(), abelian(2, 0, "u")),
        (gl11(), abelian(1, 0, "t")),
        (abelian(1, 1, "m"), susy_line()),      # abelian kernel
        (sl2(), susy_line()),                   # centerless kernel
        (sl2(), sl2()),
    ]
    for h, g in cases:
        out_alg, _ = out_quotient(h)
        abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
        obs = obstruction_class(derivations(h), g, abar)
        # the cocycle is valued in the center ...
        for _tup, val in obs.lam.values:
            v = obs.center_incl.apply(val)
            assert ad(h, v, degree=h.space.vector_parity(v)).is_zero()
        # ... and closed for the module differential
        assert module_delta(obs.module, obs.lam).is_zero()
        # cochain-level lift invariance under 20 random perturbations
        lam_h = covariant_delta(g, obs.alpha, obs.rho)
        for _ in range(20):
            b = random_witness(g, h, rng)
            bc = witness_cochain(b)
            alpha2 = tuple(op + ad(h, b.column(i), degree=g.space.parities[i])
                           for i, op in enumerate(obs.alpha))
            rho2 = obs.rho + covariant_delta(g, obs.alpha, bc) \
                + nr_bracket(bc, bc, h).scale(F(1, 2))
            assert covariant_delta(g, alpha2, rho2) == lam_h
        # abelian or centerless kernels never obstruct
        if h.is_abelian() or not center(h):
            assert obs.vanishes
        rep = classify_extensions(h, g, abar)
        assert rep.obstruction.vanishes
        for d in rep.data:
            assert check_datum(d).ok


@criterion(7, "odd-generator regression")
def test_criterion_7_super_regression():
    g = abelian_algebra(("Q",), (1,))
    h = abelian_algebra(("H",), (0,))
    rho = make_cochain(g.space, h.space, 2, 0, {(0, 0): (2,)})
    d = ExtensionDatum(g, h, trivial_datum(g, h).alpha, rho)
    t = build_extension(d)
    assert same_structure(t.e, susy_line())
    assert t.e.space.names == ("H", "Q")
    assert t.e.brackets == susy_line().brackets

    a01 = abelian(0, 1)
    mod = trivial_module(a01)
    for p in range(0, 7):
        rep = cohomology_space(a01, mod, p)
        assert rep.total_dim == 1
        assert rep.weight(p % 2).dim == 1

    # rigidity: the only degree-0 witness g -> h is zero, so different
    # curvature scalings are inequivalent
    with pytest.raises(ValueError):
        linear_map(g.space, h.space, 0, ((1,),))
    b0 = GradedLinearMap.zero(g.space, h.space, 0)
    for c, c2 in ((2, 4), (1, 2), (2, -2)):
        dc = ExtensionDatum(g, h, d.alpha,
                            make_cochain(g.space, h.space, 2, 0, {(0, 0): (F(c),)}))
        dc2 = ExtensionDatum(g, h, d.alpha,
                             make_cochain(g.space, h.space, 2, 0, {(0, 0): (F(c2),)}))
        assert not check_equivalence_witness(dc, dc2, b0)
        assert check_equivalence_witness(dc, dc, b0)


@criterion(8, "pullback of a centerless kernel")
def test_criterion_8_pullback():
    h = sl2()
    out_alg, _ = out_quotient(h)
    for g in (abelian(1, 0, "t"), abelian(2, 0, "u"), sl2()):
        abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
        t = pullback_extension(h, g, abar)
        want = build_extension(trivial_datum(g, h)).e   # sl2 (+) g constants
        assert same_structure(normalized_structure(t), want)


@criterion(9, "golden files and byte stability")
def test_criterion_9_cli_goldens():
    subcommands = set()
    for name, argv, want_exit in CASES:
        r = run_cli(argv, cwd=INPUTS)
        assert r.returncode == want_exit, (name, r.stderr.decode())
        assert r.stdout == (EXPECTED / f"{name}.out").read_bytes(), name
        subcommands.add(argv[0])
        if "--json" in argv:
            r2 = run_cli(argv, cwd=INPUTS)
            assert r2.stdout == r.stdout, f"{name} not byte-stable"
    assert subcommands == {
        "validate", "center", "derivations", "out", "cohomology", "section-data",
        "check-data", "build", "transform", "equivalent", "split-check",
        "obstruction", "classify", "pullback",
    }
    # reports contain no decimal-point numbers: rationals are exact strings
    pat = re.compile(rb"\d+\.\d")
    for name, argv, _ in CASES:
        out = (EXPECTED / f"{name}.out").read_bytes()
        assert not pat.search(out), name
