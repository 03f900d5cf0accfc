"""The Lie-algebra layer on nonzero structure constants against dense oracles.

`validate_algebra`, the Leibniz system of `derivations`, `graded_commutator`,
`commutator_defect`, `ad`, `is_derivation`, `is_homomorphism` and the
cyclic-curvature check of `check_datum` (delta_alpha rho, from the
differential's stencil) sum over nonzero entries only.
Each must give exactly what the dense computation in `oracles` gives:
equal reports with byte-identical failure strings, tuple-identical bases,
and Fraction entries throughout.  The rescaled algebras have structure
constants that are not integers, so the integer Leibniz rows of
`derivations` are cleared of a denominator greater than 1.
"""

import json
import math
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
from superext.gvs import (
    GradedLinearMap,
    IncrementalSpan,
    LinearSystem,
    _commutator,
    dense_vec,
    linear_map,
    unit_vec,
)
from superext.superlie import (
    ad,
    algebra_from_table,
    commutator_defect,
    derivations,
    direct_sum,
    is_derivation,
    is_homomorphism,
    make_algebra,
    out_quotient,
    validate_algebra,
)

from oracles import (
    brute_jacobi,
    compose_commutator,
    dense_ad,
    dense_commutator_defect,
    dense_curvature_failures,
    dense_derivation_basis_of_parity,
    dense_is_derivation,
    dense_is_homomorphism,
    dense_kernel_basis,
    dense_rref,
    dense_solve,
    dense_validate_algebra,
    derivation_algebra,
    graded_commutator,
    random_cochain,
    random_homogeneous_vector,
)

INPUTS = Path(__file__).parent / "golden" / "inputs"


def rescaled(alg, factors):
    """alg in the basis e'_i = s_i e_i, so c'^k_ij = s_i s_j c^k_ij / s_k; validated."""
    s = [F(x) for x in factors]
    n = alg.dim
    out = make_algebra(alg.space, {
        (i, j): tuple(s[i] * s[j] * alg.brackets[i][j][k] / s[k] for k in range(n))
        for i in range(n) for j in range(n)})
    assert validate_algebra(out).ok
    return out


RESCALED = {
    # (H, 2E, F/3): [E', F'] = 2/3 H
    "sl2 rescaled": ((1, 2, F(1, 3)), sl2),
    # Q+ by 1/2, Q- by 3: [Q+', Q+'] = 1/2 E, [F, Q+'] = -1/6 Q-'
    "osp12 rescaled": ((1, 1, 1, F(1, 2), 3), osp12),
}

ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "susy_line": susy_line,
    "gl11": gl11,
    "osp12": osp12,
    "sl2+heis3": lambda: direct_sum(sl2(), heis3()),
    **{name: (lambda f=factors, b=base: rescaled(b(), f))
       for name, (factors, base) in RESCALED.items()},
}


@pytest.mark.parametrize("name, lcm", [("sl2 rescaled", 3), ("osp12 rescaled", 6)])
def test_rescaled_algebras_have_fractional_structure_constants(name, lcm):
    alg = ALGEBRAS[name]()
    dens = {c.denominator for row in alg.brackets for v in row for c in v}
    assert math.lcm(*dens) == lcm


@pytest.mark.parametrize("entry, error, message", [
    (0.0, TypeError, "not an exact rational: 0.0"),
    (1.5, TypeError, "not an exact rational: 1.5"),
    ("0.5", ValueError, "not an exact rational 'p' or 'p/q': '0.5'"),
    ("1e3", ValueError, "not an exact rational 'p' or 'p/q': '1e3'"),
])
def test_make_algebra_refuses_inexact_entries(entry, error, message):
    # a dense bracket value is exact or refused, a zero float included,
    # wherever the entry sits beside exact zeros
    space = sl2().space
    for value in ((entry, 0, 0), (0, F(0), entry), (1, entry, 0)):
        with pytest.raises(error) as info:
            make_algebra(space, {(0, 1): value})
        assert str(info.value) == message


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
    return make_algebra(alg.space, {(i, j): v for i, row in enumerate(table)
                                    for j, v in enumerate(row)})


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
        linear_map(sp, sp, 0, ((F(0), F(1)), (F(0), F(0))))


def random_map(space, deg, rng):
    """A random homogeneous map of degree deg with entries in {-1, 0, 1}."""
    return linear_map(space, space, deg, tuple(
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
                                 ("gl11", "susy_line"), ("sl2 rescaled", "a11"),
                                 ("osp12 rescaled", "heis3")])
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
           IncrementalSpan({j: x for j, x in enumerate(r) if x} for r in rows).kernel(ncols)]
    assert got == dense_kernel_basis(rows, ncols)
    assert all(type(x) is F for v in got for x in v)


# ---------- the half Leibniz system, the sparse defect and is_homomorphism ----------

def test_derivations_refuse_a_table_that_is_not_antisymmetric():
    # [H,E] moves and [E,H] does not: the rows of the pairs a <= b would no
    # longer span those of every ordered pair, so the table is refused
    bad = perturbed(sl2(), 0, 1, 1, F(1), mirror=False)
    with pytest.raises(ValueError, match=r"antisymmetric table: antisymmetry: \[E,H\] != -\[H,E\]"):
        derivations(bad)
    assert validate_algebra(bad).failures[0] == "antisymmetry: [E,H] != -[H,E]"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["sl2", "heis3", "gl11", "osp12", "sl2 rescaled"]),
       st.integers(0, 10 ** 6), deltas, st.booleans())
def test_half_leibniz_system_matches_dense_on_perturbed_tables(name, pick, delta, mirror):
    # a mirrored move keeps the table graded antisymmetric but mostly breaks
    # Jacobi and often degree 0: the pairs a <= b must still give the
    # kernel of the system over all ordered pairs; otherwise derivations refuses
    alg = ALGEBRAS[name]()
    n = alg.dim
    bad = perturbed(alg, pick % n, pick // n % n, pick // (n * n) % n, delta, mirror)
    rep = validate_algebra(bad)
    if rep.antisymmetry:
        for deg in (0, 1):
            got = superlie._derivation_basis_of_parity(bad, deg)
            assert got == dense_derivation_basis_of_parity(bad, deg)
        if rep.degree_zero:  # otherwise an ad matrix is not homogeneous
            derivations(bad)
    else:
        with pytest.raises(ValueError, match="antisymmetric table"):
            derivations(bad)


@pytest.mark.parametrize("name, rows", [("heis3", 5), ("gl11", 28), ("osp12", 58),
                                        ("sl2+sl2", 72), ("sl2+heis3", 50)])
def test_leibniz_rows_per_derivations_call(monkeypatch, name, rows):
    # one row set per pair a <= b; all ordered pairs would give 10, 50,
    # 106, 144 and 100 nonzero rows
    alg = direct_sum(sl2(), sl2()) if name == "sl2+sl2" else ALGEBRAS[name]()
    seen = []

    class Counted(IncrementalSpan):
        def __init__(self, rs=()):
            rs = list(rs)
            seen.extend(rs)
            super().__init__(rs)

    monkeypatch.setattr(superlie, "IncrementalSpan", Counted)
    derivations(alg)
    assert len(seen) == rows
    assert all(type(x) is int for r in seen for x in r.values())


@pytest.mark.parametrize("name", ["sl2+heis3", "gl11"])
def test_derivations_eliminate_the_ad_columns_once_per_parity(monkeypatch, name):
    # one tagged elimination per parity gives the inner rows, their
    # preimages and the sift of the Leibniz kernel: no span beside it and
    # no solve per inner row; sl2+heis3 has even elements only, gl(1|1) both.
    # A span whose kernel is read is the Leibniz system itself, not a sift
    alg, systems, solves, spans = ALGEBRAS[name](), [], [], []

    class KernelOnly(IncrementalSpan):
        def __init__(self, rows=()):
            spans.append(self)
            super().__init__(rows)

        def kernel(self, ncols):
            spans.remove(self)
            return super().kernel(ncols)

    class Counted(LinearSystem):
        def __init__(self, cols, nrows):
            systems.append(nrows)
            super().__init__(cols, nrows)

        def solve(self, rhs):
            solves.append(rhs)
            return super().solve(rhs)

    monkeypatch.setattr(superlie, "LinearSystem", Counted)
    monkeypatch.setattr(superlie, "IncrementalSpan", KernelOnly)
    ds = derivations(alg)
    assert ds.inner_count > 0
    assert {d.degree for d in ds.basis} == ({0, 1} if name == "gl11" else {0})
    assert (systems, solves, spans) == ([alg.dim ** 2] * 2, [], [])


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_inner_members_and_preimages_match_dense_oracles(name):
    # per parity, the inner members are the RREF rows of the flattened ad
    # matrices and each preimage is the canonical solution of its ad
    # system; on the rescaled algebras den > 1 enters every preimage
    alg = ALGEBRAS[name]()
    n, ds = alg.dim, derivations(alg)
    rows, pres = [], []
    for deg in (0, 1):
        gens = [i for i in range(n) if alg.space.parities[i] == deg]
        cols = [tuple(x for row in dense_ad(alg, unit_vec(n, i), deg).matrix for x in row)
                for i in gens]
        red = dense_rref(cols)[0] if cols else []
        rows += red
        ad_rows = [[c[t] for c in cols] for t in range(n * n)]
        pres += [dense_vec(dict(zip(gens, dense_solve(ad_rows, r, len(gens)))), n) for r in red]
    inner = ds.basis[:ds.inner_count]
    assert [tuple(x for row in d.matrix for x in row) for d in inner] == [tuple(r) for r in rows]
    assert list(ds.inner_preimages) == pres
    assert all(type(x) is F for v in ds.inner_preimages for x in v)


def test_inner_derivation_fault_can_fire(monkeypatch):
    # the integer check r = sum_j t_j den ad_{e_j} of each kept row stays live
    kept = LinearSystem.kept_rows

    def wrong_tags(self):
        return [(p, r, {j: 2 * t for j, t in t.items()}) for p, r, t in kept(self)]

    monkeypatch.setattr(LinearSystem, "kept_rows", wrong_tags)
    with pytest.raises(RuntimeError, match="an inner derivation is not an ad_H"):
        derivations(sl2())


denominators = st.sampled_from([F(0)] * 4 + [F(1), F(-2), F(1, 2), F(-2, 3), F(5, 6), F(3, 10)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["gl11", "osp12", "sl2+heis3"]), st.integers(0, 1), st.integers(0, 1),
       st.data())
def test_commutator_matches_compose_on_maps_with_mixed_denominators(name, deg_a, deg_b, data):
    # each map is scaled to integers by its own lcm, so entries over
    # different denominators in the two maps must still meet exactly
    space = ALGEBRAS[name]().space
    n = space.dim

    def draw(deg):
        return linear_map(space, space, deg, tuple(
            tuple(data.draw(denominators) if space.parities[i] == (space.parities[j] + deg) % 2
                  else F(0) for j in range(n)) for i in range(n)))

    a, b = draw(deg_a), draw(deg_b)
    got = _commutator(a, b)
    assert got == compose_commutator(a, b)._flat_nonzeros()
    assert all(type(x) is F and x for x in got.values())


def defect_cases(h, rng):
    """(g, ops) pairs on h: ad of h itself, a homomorphism, then random maps
    and fractional multiples of der(h) members for a few g."""
    cases = [(h, tuple(ad(h, dense_vec({i: F(1)}, h.dim)) for i in range(h.dim)))]
    members = derivations(h).basis
    for g in (abelian(1, 1), susy_line(), gl11()):
        cases.append((g, tuple(random_map(h.space, p, rng) for p in g.space.parities)))
        cases.append((g, tuple(
            rng.choice([d for d in members if d.degree == p]).scale(F(rng.choice([1, -2, 3]), 2))
            if any(d.degree == p for d in members) else GradedLinearMap.zero(h.space, h.space, p)
            for p in g.space.parities)))
    return cases


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_commutator_defect_matches_dense_oracle(name):
    h = ALGEBRAS[name]()
    for k, (g, ops) in enumerate(defect_cases(h, random.Random(f"defect/{name}"))):
        for i in range(g.dim):
            for j in range(g.dim):
                got = commutator_defect(g, ops, i, j)
                assert got == dense_commutator_defect(g, ops, i, j)
                assert all(type(x) is F for x in got.values())
                if k == 0:
                    assert got == {}


def moved_entries(f):
    """f with one entry moved by 1 or -1/2, for every entry degree 0 allows."""
    dp, cp = f.domain.parities, f.codomain.parities
    for r in range(f.codomain.dim):
        for c in range(f.domain.dim):
            if cp[r] == dp[c]:
                for delta in (F(1), F(-1, 2)):
                    m = [list(row) for row in f.matrix]
                    m[r][c] += delta
                    yield linear_map(f.domain, f.codomain, 0, tuple(map(tuple, m)))


def diagonal(src, dst, entries):
    n = src.dim
    return linear_map(src.space, dst.space, 0, tuple(
        tuple(F(entries[i]) if i == j else F(0) for j in range(n)) for i in range(n)))


def homomorphism_cases():
    """(f, src, dst) with f a homomorphism: identities, the rescaling
    isomorphisms both ways, and the inclusion and projection of a sum."""
    for name in ALGEBRAS:
        alg = ALGEBRAS[name]()
        yield GradedLinearMap.identity_map(alg.space), alg, alg
    for name, (factors, base) in RESCALED.items():
        src, dst = base(), ALGEBRAS[name]()
        yield diagonal(src, dst, [1 / F(s) for s in factors]), src, dst  # e_i = e'_i / s_i
        yield diagonal(dst, src, factors), dst, src
    s, h = sl2(), heis3()
    total = direct_sum(s, h)
    yield linear_map(s.space, total.space, 0, tuple(
        tuple(F(int(i == j)) for j in range(3)) for i in range(6))), s, total
    yield linear_map(total.space, h.space, 0, tuple(
        tuple(F(int(j == 3 + i)) for j in range(6)) for i in range(3))), total, h


def test_is_homomorphism_matches_dense_oracle():
    for f, src, dst in homomorphism_cases():
        assert is_homomorphism(f, src, dst) and dense_is_homomorphism(f, src, dst)
        for moved in moved_entries(f):
            assert is_homomorphism(moved, src, dst) == dense_is_homomorphism(moved, src, dst)


@pytest.mark.parametrize("name", ["heis3", "gl11", "sl2 rescaled", "osp12 rescaled"])
def test_out_projection_matches_dense_oracle(name):
    # pi: der(h) -> out(h) is a homomorphism whose brackets come from the
    # sparse commutator; a moved entry is judged like the dense sums judge it
    alg = ALGEBRAS[name]()
    out, pi = out_quotient(alg)
    der_alg = derivation_algebra(derivations(alg))
    assert is_homomorphism(pi, der_alg, out) and dense_is_homomorphism(pi, der_alg, out)
    for moved in moved_entries(pi):
        assert is_homomorphism(moved, der_alg, out) == dense_is_homomorphism(moved, der_alg, out)


def test_pipeline_builds_no_dense_table(monkeypatch):
    # the integer `structure` is the record: validation, der(h) and out(h),
    # cohomology, the classification and the pullback never build the dense
    # `brackets` view of an algebra passed in or built, and the sparse
    # `columns` are: no map passed in or built reads its dense `matrix` view
    from superext import cohomology, extensions
    from superext.extensions import build_extension, pullback_extension

    records, derivations = [], superlie.derivations

    def recording_derivations(alg):
        records.append(derivations(alg))
        return records[-1]

    monkeypatch.setattr(cohomology, "derivations", recording_derivations)
    monkeypatch.setattr(extensions, "derivations", recording_derivations)
    h, g, k = heis3(), susy_line(), sl2()
    assert all(validate_algebra(a).ok for a in (h, g, k))
    ds_h, ds_k = derivations(h), derivations(k)
    cohomology.cohomology_space(g, cohomology.trivial_module(g), 2)
    abar_h = GradedLinearMap.zero(g.space, ds_h.out.space)
    rep = cohomology.classify_extensions(h, g, abar_h)
    abar_k = GradedLinearMap.zero(g.space, ds_k.out.space)
    t = pullback_extension(k, g, abar_k)
    built = [build_extension(d) for d in rep.data]  # the classification builds none
    assert len(built) == len(rep.data) > 0 and len(records) == 2
    for a in (h, g, k, ds_h.out, ds_k.out, t.e, *(b.e for b in built)):
        assert "brackets" not in vars(a)
    maps = [abar_h, abar_k, *(m for d in rep.data for m in d.alpha)]
    for ds in (ds_h, ds_k, *records):
        maps += [*ds.basis, ds.proj]
    for triple in (t, *built):
        maps += [triple.incl, triple.proj, triple.section]
    assert len(maps) > 20
    for m in maps:
        assert "matrix" not in vars(m)
