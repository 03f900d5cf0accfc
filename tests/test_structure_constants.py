"""The Lie-algebra layer on nonzero structure constants against dense oracles.

`validate_algebra`, the Leibniz system of `derivations`, `graded_commutator`,
`ad`, `is_derivation` and the cyclic-curvature check of `check_datum` sum
over nonzero entries only.  Each must give exactly what the dense
computation in `oracles` gives: equal reports with byte-identical failure
strings, tuple-identical bases, and Fraction entries throughout.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superext import formats, superlie
from superext.catalog import abelian, gl11, heis3, osp12, sl2, susy_line
from superext.cochains import make_cochain
from superext.extensions import ExtensionDatum, check_datum
from superext.gvs import GradedLinearMap, dense_vec, graded_commutator, sparse_kernel_basis
from superext.superlie import (
    SuperLieAlgebra,
    ad,
    algebra_from_table,
    derivations,
    direct_sum,
    is_derivation,
    validate_algebra,
)

from oracles import (
    brute_jacobi,
    compose_commutator,
    dense_ad,
    dense_curvature_failures,
    dense_derivation_basis_of_parity,
    dense_is_derivation,
    dense_kernel_basis,
    dense_validate_algebra,
    random_cochain,
    random_homogeneous_vector,
)

INPUTS = Path(__file__).parent / "golden" / "inputs"

ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "susy_line": susy_line,
    "gl11": gl11,
    "osp12": osp12,
    "sl2+heis3": lambda: direct_sum(sl2(), heis3()),
}


def all_fractions(m):
    return all(type(x) is F for row in m for x in row)


def golden_algebra(name):
    return formats.parse_algebra(json.loads((INPUTS / name).read_text()))[1]


@pytest.mark.parametrize("name", list(ALGEBRAS) + ["a11", "broken.json"])
def test_validate_matches_dense_oracle(name):
    if name.endswith(".json"):
        alg = golden_algebra(name)
    elif name == "a11":
        alg = abelian(1, 1)
    else:
        alg = ALGEBRAS[name]()
    rep = validate_algebra(alg)
    assert rep == dense_validate_algebra(alg)
    assert rep.ok == brute_jacobi(alg)


def test_validate_broken_residual_string():
    rep = validate_algebra(golden_algebra("broken.json"))
    assert rep.failures == (
        "degree: [Q,Q] has parity-1 component Q but should be parity 0",
        "jacobi: residual on (Q,Q,Q) = -3*Q",
    )


def test_jacobi_residual_lists_components_in_basis_order():
    # on (e0,e1,e2) the first cyclic term gives e2 and the second gives e1
    alg = algebra_from_table(["e0", "e1", "e2"], [0, 0, 0], {
        ("e0", "e1"): {"e2": 1}, ("e1", "e2"): {"e1": 1}, ("e2", "e0"): {"e2": 1}})
    rep = validate_algebra(alg)
    assert rep == dense_validate_algebra(alg)
    assert rep.failures == ("jacobi: residual on (e0,e1,e2) = 1*e1 + 1*e2",)


def perturbed(alg, i, j, k, delta, mirror):
    """alg with c^k_ij moved by delta; with `mirror`, c^k_ji moves with it
    by graded antisymmetry, so the Jacobi and degree checks are reached."""
    table = [[list(v) for v in row] for row in alg.brackets]
    table[i][j][k] += delta
    if mirror and i != j:
        odd = alg.space.parities[i] * alg.space.parities[j] % 2
        table[j][i][k] += delta if odd else -delta
    return SuperLieAlgebra(alg.space, tuple(tuple(tuple(v) for v in row) for row in table))


deltas = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-5, 3)])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["sl2", "heis3", "susy_line", "gl11", "osp12"]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), deltas, st.booleans()),
                min_size=1, max_size=2))
def test_validate_matches_dense_oracle_on_perturbed_tables(name, moves):
    # two moves often leave a residual with several components
    bad = ALGEBRAS[name]()
    n = bad.dim
    for pick, delta, mirror in moves:
        i, j, k = pick % n, pick // n % n, pick // (n * n) % n
        bad = perturbed(bad, i, j, k, delta, mirror)
    rep = validate_algebra(bad)
    assert rep == dense_validate_algebra(bad)
    assert rep.ok == brute_jacobi(bad)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_leibniz_kernel_matches_dense_system(name, monkeypatch):
    alg = ALGEBRAS[name]()
    for deg in (0, 1):
        got = superlie._derivation_basis_of_parity(alg, deg)
        assert got == dense_derivation_basis_of_parity(alg, deg)
        assert all(all_fractions(d.matrix) for d in got)
    basis = derivations(alg).basis
    monkeypatch.setattr(superlie, "_derivation_basis_of_parity", dense_derivation_basis_of_parity)
    assert basis == derivations(alg).basis


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_commutator_matches_compose_on_derivation_pairs(name):
    basis = derivations(ALGEBRAS[name]()).basis
    for a in basis:
        for b in basis:
            got = graded_commutator(a, b)
            assert got == compose_commutator(a, b)
            assert all_fractions(got.matrix)


def test_commutator_refuses_maps_on_different_spaces():
    a = GradedLinearMap.identity_map(sl2().space)
    b = GradedLinearMap.identity_map(heis3().space)
    with pytest.raises(ValueError):
        graded_commutator(a, b)


def test_homogeneity_check_kept():
    sp = susy_line().space  # H even, Q odd
    with pytest.raises(ValueError, match="violates homogeneity"):
        GradedLinearMap(sp, sp, 0, ((F(0), F(1)), (F(0), F(0))))


def random_map(space, deg, rng):
    """A random homogeneous map of degree deg with entries in {-1, 0, 1}."""
    return GradedLinearMap(space, space, deg, tuple(
        tuple(F(rng.randint(-1, 1)) if space.parities[i] == (space.parities[j] + deg) % 2
              else F(0) for j in range(space.dim))
        for i in range(space.dim)))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_ad_and_is_derivation_match_dense_oracles(name):
    alg = ALGEBRAS[name]()
    rng = random.Random(name)
    for deg in (0, 1):
        for _ in range(4):
            x = random_homogeneous_vector(alg.space, deg, rng)
            got = ad(alg, x, degree=deg)
            assert got == dense_ad(alg, x, deg)
            assert all_fractions(got.matrix)
            assert is_derivation(alg, got) and dense_is_derivation(alg, got)
        for _ in range(6):
            d = random_map(alg.space, deg, rng)
            assert is_derivation(alg, d) == dense_is_derivation(alg, d)
    for d in derivations(alg).basis:
        assert is_derivation(alg, d)


@pytest.mark.parametrize("g,h", [("a11", "a11"), ("sl2", "a11"), ("susy_line", "heis3"),
                                 ("gl11", "susy_line")])
def test_curvature_failures_match_dense_oracle(g, h):
    rng = random.Random(f"{g}/{h}")
    galg = abelian(1, 1) if g == "a11" else ALGEBRAS[g]()
    halg = abelian(1, 1) if h == "a11" else ALGEBRAS[h]()
    for _ in range(5):
        alpha = tuple(random_map(halg.space, p, rng) for p in galg.space.parities)
        rho = random_cochain(galg.space, halg.space, 2, 0, rng)
        d = ExtensionDatum(galg, halg, alpha, rho)
        curvature = [f for f in check_datum(d).failures if f.startswith("cyclic curvature")]
        assert curvature == dense_curvature_failures(d)
    zero = tuple(GradedLinearMap.zero(halg.space, halg.space, p) for p in galg.space.parities)
    flat = ExtensionDatum(galg, halg, zero, make_cochain(galg.space, halg.space, 2, 0))
    assert check_datum(flat).ok and dense_curvature_failures(flat) == []


entries = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda ncols: st.tuples(st.just(ncols), st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))))
def test_kernel_basis_matches_dense_oracle(shape):
    ncols, rows = shape
    got = [dense_vec(v, ncols) for v in
           sparse_kernel_basis([{j: x for j, x in enumerate(r) if x} for r in rows], ncols)]
    assert got == dense_kernel_basis(rows, ncols)
    assert all(type(x) is F for v in got for x in v)
