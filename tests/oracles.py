"""Independent oracles and random generators for the test suite.

Everything here recomputes results from first principles (brute-force
loops, full-symmetrization sums, closed-form signs) without reusing the
library code paths it checks.  The exceptions are the three views at the
end, `graded_commutator`, `derivation_algebra` and `delta_matrix`: views
of library results that only tests read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from superext.gvs import (GradedLinearMap, SuperVectorSpace, _commutator, linear_map, scalar,
                          unit_vec, vec, vec_add, vec_scale, zero_vec)
from superext.superlie import (DerivationSpace, SuperLieAlgebra, ValidationReport, _flat_map,
                               bracket_algebra)
from superext.cochains import (TRIVIAL_LINE, Cochain, canonical_tuples, differential_matrix,
                               make_cochain)
from superext.extensions import (
    ExtensionDatum,
    ExtensionTriple,
    build_extension,
    induced_data,
    transform_datum,
    trivial_datum,
)


def perm_sign(p) -> int:
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def block_sign(sigma, word) -> int:
    """Closed form for the multigraded sign: sign(sigma) times the sign of
    the permutation induced on the odd entries."""
    odd_in_target = [sigma[i] for i in range(len(sigma)) if word[sigma[i]] == 1]
    rankmap = {v: r for r, v in enumerate(sorted(odd_in_target))}
    induced = [rankmap[v] for v in odd_in_target]
    return perm_sign(sigma) * perm_sign(induced)


def brute_jacobi(alg: SuperLieAlgebra) -> bool:
    """Graded antisymmetry, degree 0 and Jacobi on ALL index triples,
    with every sign expanded from the defining identities."""
    n = alg.dim
    par = alg.space.parities
    for i in range(n):
        for j in range(n):
            want = (par[i] + par[j]) % 2
            for k, c in enumerate(alg.brackets[i][j]):
                if c != 0 and par[k] != want:
                    return False
            sign = Fraction((-1) ** (1 + par[i] * par[j]))
            if alg.brackets[j][i] != vec_scale(sign, alg.brackets[i][j]):
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # [X,[Y,Z]] - [[X,Y],Z] - (-1)^{xy} [Y,[X,Z]]
                t1 = alg.bracket_vec(unit_vec(n, i), alg.brackets[j][k])
                t2 = alg.bracket_vec(alg.brackets[i][j], unit_vec(n, k))
                t3 = alg.bracket_vec(unit_vec(n, j), alg.brackets[i][k])
                res = vec_add(
                    t1,
                    vec_add(vec_scale(Fraction(-1), t2),
                            vec_scale(Fraction((-1) ** (1 + par[i] * par[j])), t3)),
                )
                if any(c != 0 for c in res):
                    return False
    return True


def classical_ce_delta(alg: SuperLieAlgebra, values: dict, arity: int) -> dict:
    """Classical Chevalley-Eilenberg differential with trivial coefficients
    on a purely even algebra: strictly increasing tuples, signs (-1)^{i+j}."""
    assert all(p == 0 for p in alg.space.parities)
    n = alg.dim
    out: dict[tuple, Fraction] = {}

    def ev(tup) -> Fraction:
        srt = tuple(sorted(tup))
        if len(set(srt)) != len(srt):
            return Fraction(0)
        return perm_sign_of_sort(tup) * values.get(srt, Fraction(0))

    from itertools import combinations
    for tup in combinations(range(n), arity + 1):
        acc = Fraction(0)
        for a in range(arity + 1):
            for b in range(a + 1, arity + 1):
                w = alg.brackets[tup[a]][tup[b]]
                rest = tuple(t for q, t in enumerate(tup) if q not in (a, b))
                for m, c in enumerate(w):
                    if c != 0:
                        acc += Fraction((-1) ** (a + b)) * c * ev((m,) + rest)
        if acc != 0:
            out[tup] = acc
    return out


def perm_sign_of_sort(tup) -> int:
    """Sign of the permutation sorting an integer tuple (repeats allowed)."""
    work = list(tup)
    s = 1
    for i in range(1, len(work)):
        j = i
        while j > 0 and work[j - 1] > work[j]:
            work[j - 1], work[j] = work[j], work[j - 1]
            s = -s
            j -= 1
    return s


def full_sum_wedge(psi: Cochain, phi: Cochain) -> Cochain:
    """The wedge by full symmetrization over S_{q+p} divided by q! p!."""
    q, p = psi.arity, phi.arity
    src = psi.source
    fact = Fraction(1)
    for k in range(1, q + 1):
        fact *= k
    for k in range(1, p + 1):
        fact *= k
    table = {}
    for tup in canonical_tuples(src, q + p):
        word = tuple(src.parities[i] for i in tup)
        acc = zero_vec(phi.target.dim)
        for sigma in permutations(range(q + p)):
            s = block_sign(sigma, word)
            b_q = sum(word[sigma[i]] for i in range(q))
            if (phi.weight * b_q) % 2:
                s = -s
            c = psi.evaluate([tup[sigma[i]] for i in range(q)])[0]
            if c == 0:
                continue
            v = phi.evaluate([tup[sigma[i]] for i in range(q, q + p)])
            acc = vec_add(acc, vec_scale(Fraction(s) * c, v))
        acc = vec_scale(Fraction(1) / fact, acc)
        table[tup] = acc
    return make_cochain(src, phi.target, q + p, (psi.weight + phi.weight) % 2, table)


def full_sum_bracket(phi: Cochain, psi: Cochain, alg: SuperLieAlgebra) -> Cochain:
    """The wedge-bracket by full symmetrization divided by p! q!."""
    p, q = phi.arity, psi.arity
    src = phi.source
    fact = Fraction(1)
    for k in range(1, q + 1):
        fact *= k
    for k in range(1, p + 1):
        fact *= k
    table = {}
    for tup in canonical_tuples(src, p + q):
        word = tuple(src.parities[i] for i in tup)
        acc = zero_vec(alg.dim)
        for sigma in permutations(range(p + q)):
            s = block_sign(sigma, word)
            b_p = sum(word[sigma[i]] for i in range(p))
            if (psi.weight * b_p) % 2:
                s = -s
            left = phi.evaluate([tup[sigma[i]] for i in range(p)])
            right = psi.evaluate([tup[sigma[i]] for i in range(p, p + q)])
            acc = vec_add(acc, vec_scale(Fraction(s), alg.bracket_vec(left, right)))
        table[tup] = vec_scale(Fraction(1) / fact, acc)
    return make_cochain(src, alg.space, p + q, (phi.weight + psi.weight) % 2, table)


# ---------- random generators ----------

def random_homogeneous_vector(space, parity, rng, lo=-2, hi=2):
    return tuple(
        Fraction(rng.randint(lo, hi)) if space.parities[k] == parity else Fraction(0)
        for k in range(space.dim)
    )


def zero_cochain(source, target, arity, weight) -> Cochain:
    return make_cochain(source, target, arity, weight)


def scalar_cochain(source, arity, weight, table) -> Cochain:
    """Cochain valued in the trivial line, from {tuple: scalar}."""
    return make_cochain(source, TRIVIAL_LINE, arity, weight,
                        {tup: (scalar(c),) for tup, c in table.items()})


def evaluate_vectors(phi: Cochain, vectors) -> tuple:
    """The multilinear extension of phi to arbitrary coordinate vectors."""
    if len(vectors) != phi.arity:
        raise ValueError(f"expected {phi.arity} arguments")
    supports = [[(i, a) for i, a in enumerate(vec(v)) if a] for v in vectors]
    out = zero_vec(phi.target.dim)
    for picks in product(*supports):
        coeff = Fraction(1)
        for _, a in picks:
            coeff *= a
        out = vec_add(out, vec_scale(coeff, phi.evaluate([i for i, _ in picks])))
    return out


def normalized_structure(t: ExtensionTriple, s=None) -> SuperLieAlgebra:
    """Rebase a triple onto the basis (incl(h), s(g)): the canonical form.

    With the carried section this equals `build_extension(induced_data(t))`
    and exposes the structure constants in the h-then-g convention, which
    makes algebras comparable by `same_structure`.
    """
    return build_extension(induced_data(t, s)).e


def random_cochain(gspace, hspace, arity, weight, rng) -> Cochain:
    table = {}
    for tup in canonical_tuples(gspace, arity):
        want = (weight + sum(gspace.parities[i] for i in tup)) % 2
        table[tup] = random_homogeneous_vector(hspace, want, rng)
    return make_cochain(gspace, hspace, arity, weight, table)


def random_witness(g: SuperLieAlgebra, h: SuperLieAlgebra, rng) -> GradedLinearMap:
    """A random degree-0 linear map g -> h with small integer entries."""
    m = [
        [
            Fraction(rng.randint(-2, 2)) if h.space.parities[r] == g.space.parities[c]
            else Fraction(0)
            for c in range(g.dim)
        ]
        for r in range(h.dim)
    ]
    return linear_map(g.space, h.space, 0, tuple(tuple(r) for r in m))


def random_central_datum(g: SuperLieAlgebra, h: SuperLieAlgebra, rng) -> ExtensionDatum:
    """alpha = 0, rho = a random 2-cocycle of the trivial action (h abelian)."""
    assert h.is_abelian()
    from superext.cochains import cochain_coordinates, cochain_from_coordinates, space_basis
    from superext.cochains import covariant_delta

    basis2 = space_basis(g.space, h.space, 2, 0)
    basis3 = space_basis(g.space, h.space, 3, 0)
    d0 = trivial_datum(g, h)
    cols = []
    for tup, mcomp in basis2:
        elem = make_cochain(g.space, h.space, 2, 0, {tup: unit_vec(h.dim, mcomp)})
        cols.append(cochain_coordinates(covariant_delta(g, d0.alpha, elem), basis3))
    rows = tuple(tuple(cols[c][r] for c in range(len(cols))) for r in range(len(basis3)))
    kern = dense_kernel_basis(rows, len(basis2))
    coords = zero_vec(len(basis2))
    for v in kern:
        coords = vec_add(coords, vec_scale(Fraction(rng.randint(-2, 2)), v))
    rho = cochain_from_coordinates(g.space, h.space, 2, 0, basis2, coords)
    return ExtensionDatum(g, h, d0.alpha, rho)


def random_valid_datum(g: SuperLieAlgebra, h: SuperLieAlgebra, rng) -> ExtensionDatum:
    """A random valid datum: central or split, moved by a random witness."""
    if h.is_abelian() and rng.random() < 0.7:
        d = random_central_datum(g, h, rng)
    else:
        d = trivial_datum(g, h)
    if rng.random() < 0.8:
        d = transform_datum(d, random_witness(g, h, rng))
    return d


def random_extension(g: SuperLieAlgebra, h: SuperLieAlgebra, rng) -> ExtensionTriple:
    return build_extension(random_valid_datum(g, h, rng))


def random_section(t: ExtensionTriple, rng) -> GradedLinearMap:
    b = random_witness(t.g, t.h, rng)
    return t.section + t.incl.compose(b)


# ---------- differentials and elimination, the slow way ----------

def delta_by_terms(alg: SuperLieAlgebra, alpha_ops, phi: Cochain) -> Cochain:
    """The covariant differential summed term by term on every target tuple.

    Each term evaluates phi on an arbitrary argument tuple (sorting and
    signing it there), with the exponents a_i and a_ij recomputed from
    the parity word; alpha_ops None drops the action terms.
    """
    src = alg.space
    p1 = phi.arity + 1
    table = {}
    for tup in canonical_tuples(src, p1):
        word = tuple(src.parities[i] for i in tup)

        def a(i):
            return word[i] * sum(word[:i]) + i

        acc = zero_vec(phi.target.dim)
        for i in range(p1 if alpha_ops is not None else 0):
            v = phi.evaluate(tup[:i] + tup[i + 1:])
            if any(v):
                sign = Fraction((-1) ** (word[i] * phi.weight + a(i)))
                acc = vec_add(acc, vec_scale(sign, alpha_ops[tup[i]].apply(v)))
        for i in range(p1):
            for j in range(i + 1, p1):
                rest = tuple(t for k, t in enumerate(tup) if k not in (i, j))
                sign = Fraction((-1) ** (a(i) + a(j) + word[i] * word[j]))
                for m, c in enumerate(alg.brackets[tup[i]][tup[j]]):
                    v = phi.evaluate((m,) + rest) if c != 0 else ()
                    if any(v):
                        acc = vec_add(acc, vec_scale(sign * c, v))
        table[tup] = acc
    return make_cochain(src, phi.target, p1, phi.weight, table)


def delta_matrix_by_columns(g: SuperLieAlgebra, action, target, arity: int, weight: int):
    """The differential's matrix column by column: unit cochain, delta, coordinates."""
    from superext.cochains import cochain_coordinates, space_basis

    src_basis = space_basis(g.space, target, arity, weight)
    dst_basis = space_basis(g.space, target, arity + 1, weight)
    cols = []
    for tup, m in src_basis:
        elem = make_cochain(g.space, target, arity, weight, {tup: unit_vec(target.dim, m)})
        cols.append(cochain_coordinates(delta_by_terms(g, action, elem), dst_basis))
    return tuple(tuple(col[r] for col in cols) for r in range(len(dst_basis)))


def recursive_canonical_tuples(space, arity: int) -> list[tuple[int, ...]]:
    """Canonical tuples by recursion: weakly increasing, no even index twice."""
    out = []

    def rec(start, prefix):
        if len(prefix) == arity:
            out.append(prefix)
            return
        for i in range(start, space.dim):
            if prefix and prefix[-1] == i and space.parities[i] == 0:
                continue
            rec(i, prefix + (i,))

    rec(0, ())
    return out


def cartan_torus(alg: SuperLieAlgebra, action) -> list[tuple[list, list]]:
    """Every toral basis element of g on M, as its eigenvalues (lambda, mu).

    Read off the dense `alg.brackets` and the action matrices alone: e_k is
    toral when it is even, every [e_k, e_j] is a multiple lambda_j of e_j,
    and action[k] is a diagonal matrix, mu_m on the m-th basis element.
    Elements with only zero eigenvalues are kept; their weights are 0.
    """
    torus = []
    for k in range(alg.dim):
        if alg.space.parities[k]:
            continue
        rows = [alg.brackets[k][j] for j in range(alg.dim)]
        if any(c for j, v in enumerate(rows) for i, c in enumerate(v) if i != j):
            continue
        mat = action[k].matrix
        if any(c for r, row in enumerate(mat) for i, c in enumerate(row) if i != r):
            continue
        torus.append(([Fraction(v[j]) for j, v in enumerate(rows)],
                      [Fraction(row[m]) for m, row in enumerate(mat)]))
    return torus


def cartan_weight(torus, tup, m) -> tuple:
    """The weight of the coordinate (tup, m) under each toral element: mu_m - sum of lambda_t.

    It is the eigenvalue of the Lie derivative L_h phi = h.phi - sum_i
    phi(.., [h, x_i], ..) on the cochain with value e_m on tup and 0 on
    the other canonical tuples.
    """
    return tuple(mu[m] - sum(lam[t] for t in tup) for lam, mu in torus)


def eager_weight_cohomology(mod, n: int, y: int):
    """The weight-y cohomology of a module, eagerly and densely.

    D_n and D_{n-1} are written out as dense rows; the cocycles are
    `dense_kernel_basis(D_n)`, the coboundaries the `dense_rref` of the
    columns of D_{n-1}, and the representatives the cocycles whose column
    is a pivot of [coboundaries | cocycles], i.e. those that enlarge the
    span of everything before them.  Every basis vector becomes a cochain.
    Returns (cocycles, coboundaries, representatives, rank D_n).
    """
    from superext.cochains import space_basis

    g = mod.g
    rows, src, _ = delta_matrix(mod, n, y)
    dmat = dense_rows(rows, len(src))
    cocycles = dense_kernel_basis(dmat, len(src))
    if n == 0:
        coboundaries = []
    else:
        prev_rows, prev_src, _ = delta_matrix(mod, n - 1, y)
        prev = dense_rows(prev_rows, len(prev_src))
        img_cols = [tuple(row[j] for row in prev) for j in range(len(prev_src))]
        coboundaries = [tuple(r) for r in dense_rref(img_cols)[0]] if img_cols else []
    vectors = coboundaries + cocycles
    together = [tuple(v[i] for v in vectors) for i in range(len(src))]
    pivots = set(dense_rref(together)[1]) if vectors else set()
    reps = [v for k, v in enumerate(cocycles) if len(coboundaries) + k in pivots]
    basis = space_basis(g.space, mod.space, n, y)

    def to_cochain(v):
        table = {}
        for (tup, m), c in zip(basis, v, strict=True):
            if c:
                table.setdefault(tup, [Fraction(0)] * mod.space.dim)[m] = c
        return make_cochain(g.space, mod.space, n, y, table)

    rank = len(dense_rref(dmat)[1]) if dmat else 0
    return (tuple(map(to_cochain, cocycles)), tuple(map(to_cochain, coboundaries)),
            tuple(map(to_cochain, reps)), rank)


def dense_rows(rows, ncols):
    """Sparse {column: Fraction} rows written out as dense tuples.

    Every stored entry must be a nonzero Fraction: a sparse row keeps no
    zeros and no other number type.
    """
    out = []
    for row in rows:
        assert all(type(x) is Fraction and x != 0 for x in row.values()), row
        dense = [Fraction(0)] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def dense_rref(rows):
    """Textbook Gauss-Jordan on dense rows, leftmost pivot, first nonzero row."""
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def dense_solve(A, rhs, ncols=None):
    """The canonical solution of A x = rhs by dense RREF of the augmented matrix.

    Free coordinates are 0; None when the rhs column takes a pivot.
    """
    rows = [[Fraction(x) for x in r] for r in A]
    b = [Fraction(x) for x in rhs]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = dense_rref([r + [b[i]] for i, r in enumerate(rows)])
    sol = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        sol[p] = row[-1]
    return tuple(sol)


def dense_columns(A, ncols=None):
    """The columns of a matrix given as dense rows; `ncols` wide when A has no rows."""
    if ncols is None:
        ncols = len(A[0]) if A else 0
    return [tuple(row[j] for row in A) for j in range(ncols)]


def dense_mat_mul(A, B, ncols=None):
    """Every entry as a full sum over the inner index; `ncols` wide when B has no rows."""
    if ncols is None:
        ncols = len(B[0]) if B else 0
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
                       for j in range(ncols)) for i in range(len(A)))


def dense_mat_vec(A, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in A)


def dense_bracket(alg: SuperLieAlgebra, u, v):
    """[u, v] as the full double sum of u_i v_j [e_i, e_j] over the table
    (terms with u_i = 0 or v_j = 0 are zero and are skipped)."""
    n = alg.dim
    pairs = [(Fraction(u[i]) * Fraction(v[j]), alg.brackets[i][j])
             for i in range(n) if u[i] for j in range(n) if v[j]]
    return tuple(sum((c * w[k] for c, w in pairs), Fraction(0)) for k in range(n))


# ---------- the Lie-algebra layer on dense structure constants ----------

def dense_validate_algebra(alg: SuperLieAlgebra):
    """`validate_algebra` as dense vector arithmetic: every bracket of a
    basis element with a whole vector, summed with dense tuples."""
    sp = alg.space
    n = alg.dim
    fails = []
    deg_ok = True
    for i in range(n):
        for j in range(n):
            want = (sp.parities[i] + sp.parities[j]) % 2
            for k, c in enumerate(alg.brackets[i][j]):
                if c != 0 and sp.parities[k] != want:
                    deg_ok = False
                    fails.append(
                        f"degree: [{sp.names[i]},{sp.names[j]}] has parity-{sp.parities[k]} "
                        f"component {sp.names[k]} but should be parity {want}"
                    )
    anti_ok = True
    for i in range(n):
        for j in range(i, n):
            sign = Fraction(-1 if (sp.parities[i] * sp.parities[j]) % 2 == 0 else 1)
            if alg.brackets[j][i] != vec_scale(sign, alg.brackets[i][j]):
                anti_ok = False
                fails.append(f"antisymmetry: [{sp.names[j]},{sp.names[i]}] != "
                             f"{'+' if sign > 0 else '-'}[{sp.names[i]},{sp.names[j]}]")
    jac_ok = True
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                res = zero_vec(n)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    s = Fraction(-1 if (sp.parities[a] * sp.parities[c]) % 2 else 1)
                    term = dense_bracket(alg, unit_vec(n, a), alg.brackets[b][c])
                    res = vec_add(res, vec_scale(s, term))
                if any(c != 0 for c in res):
                    jac_ok = False
                    res_str = " + ".join(
                        f"{c}*{sp.names[m]}" for m, c in enumerate(res) if c != 0
                    )
                    fails.append(
                        f"jacobi: residual on ({sp.names[i]},{sp.names[j]},{sp.names[k]}) "
                        f"= {res_str}"
                    )
    return ValidationReport(deg_ok, anti_ok, jac_ok, tuple(fails))


def dense_kernel_basis(rows, ncols):
    """One kernel vector per free column of `dense_rref`."""
    red, pivots = dense_rref(rows) if rows else ([], [])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def dense_derivation_basis_of_parity(alg: SuperLieAlgebra, deg: int):
    """The graded Leibniz system written out as dense rows, one per (a, b, k),
    solved by `dense_kernel_basis`."""
    sp = alg.space
    n = alg.dim
    slots = [(i, j) for i in range(n) for j in range(n)
             if sp.parities[i] == (sp.parities[j] + deg) % 2]
    if not slots:
        return []
    slot_index = {ij: k for k, ij in enumerate(slots)}
    rows = []
    for a in range(n):
        s = Fraction(-1 if (deg * sp.parities[a]) % 2 else 1)
        for b in range(n):
            w = alg.brackets[a][b]
            for k in range(n):
                coeff = [Fraction(0)] * len(slots)
                for m, c in enumerate(w):
                    if c != 0 and (k, m) in slot_index:
                        coeff[slot_index[(k, m)]] += c
                for i in range(n):
                    if (i, a) in slot_index:
                        coeff[slot_index[(i, a)]] -= alg.brackets[i][b][k]
                for i in range(n):
                    if (i, b) in slot_index:
                        coeff[slot_index[(i, b)]] -= s * alg.brackets[a][i][k]
                rows.append(coeff)
    basis = []
    for kv in dense_kernel_basis(rows, len(slots)):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), k in slot_index.items():
            m[i][j] = kv[k]
        basis.append(linear_map(sp, sp, deg, tuple(tuple(r) for r in m)))
    return basis


def compose_commutator(a: GradedLinearMap, b: GradedLinearMap) -> GradedLinearMap:
    """[a, b] from the two compositions and a dense sum or difference."""
    ab = a.compose(b)
    ba = b.compose(a)
    return ab + (ba if a.degree * b.degree % 2 else ba.scale(-1))


def dense_commutator_defect(g: SuperLieAlgebra, ops, i: int, j: int) -> dict:
    """[op_i, op_j] - sum_m c^m_ij op_m from `compose_commutator` and dense map
    sums, keyed like the library's sparse defect: entry (r, s) at r n + s."""
    acc = compose_commutator(ops[i], ops[j])
    for m, c in enumerate(g.brackets[i][j]):
        if c != 0:
            acc = acc + ops[m].scale(-c)
    n = acc.domain.dim
    return {r * n + s: x for r, row in enumerate(acc.matrix) for s, x in enumerate(row) if x != 0}


def dense_is_homomorphism(f: GradedLinearMap, src: SuperLieAlgebra, dst: SuperLieAlgebra) -> bool:
    """f[e_i, e_j] == [f e_i, f e_j] on every ordered pair, each side a dense sum."""
    cols = [tuple(row[j] for row in f.matrix) for j in range(src.dim)]
    return all(dense_mat_vec(f.matrix, src.brackets[i][j]) == dense_bracket(dst, cols[i], cols[j])
               for i in range(src.dim) for j in range(src.dim))


def dense_ad(alg: SuperLieAlgebra, x, degree: int) -> GradedLinearMap:
    """ad_x with column j the full double sum [x, e_j]."""
    n = alg.dim
    cols = [dense_bracket(alg, x, unit_vec(n, j)) for j in range(n)]
    return linear_map(alg.space, alg.space, degree,
                      tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def dense_is_derivation(alg: SuperLieAlgebra, d: GradedLinearMap) -> bool:
    """Graded Leibniz on every basis pair, each side a dense vector."""
    n = alg.dim
    for a in range(n):
        s = Fraction(-1 if (d.degree * alg.space.parities[a]) % 2 else 1)
        for b in range(n):
            lhs = dense_mat_vec(d.matrix, alg.brackets[a][b])
            rhs = vec_add(dense_bracket(alg, d.column(a), unit_vec(n, b)),
                          vec_scale(s, dense_bracket(alg, unit_vec(n, a), d.column(b))))
            if lhs != rhs:
                return False
    return True


def product_bracket(der_alg: SuperLieAlgebra, g: SuperLieAlgebra, u, v):
    """[(D, X), (D', X')] in der(h) x g, with D summed over der(h)'s full table.

    `u` and `v` hold der(h) coordinates followed by g coordinates.
    """
    m = der_alg.dim
    dpart = zero_vec(m)
    for a in range(m):
        for b in range(m):
            if u[a] and v[b]:
                dpart = vec_add(dpart, vec_scale(u[a] * v[b], der_alg.brackets[a][b]))
    return dpart + dense_bracket(g, u[m:], v[m:])


def pullback_members(t: ExtensionTriple, ds, abar: GradedLinearMap) -> list[tuple]:
    """Each basis element of a pullback's e as a vector of der(h) x g.

    e_a = incl(H) + section(X) with X = proj(e_a), read off the triple's
    maps; its der(h) part is ad_H plus the lift of abar(X).
    """
    h, n = t.h, t.g.dim
    ad_coords = [ds.coordinates_of(dense_ad(h, unit_vec(h.dim, k), h.space.parities[k]))
                 for k in range(h.dim)]
    lifts = [ds.lift_coordinates(abar.column(j)) for j in range(n)]
    members = []
    for a in range(t.e.dim):
        x = t.proj.column(a)
        section_x = dense_mat_vec(t.section.matrix, x)
        hx = dense_solve(t.incl.matrix, vec_add(unit_vec(t.e.dim, a),
                                                vec_scale(Fraction(-1), section_x)), h.dim)
        d = zero_vec(len(ds.basis))
        for c, v in list(zip(hx, ad_coords)) + list(zip(x, lifts)):
            d = vec_add(d, vec_scale(c, v))
        members.append(d + tuple(x))
    return members


def extension_exists(ds: DerivationSpace, g: SuperLieAlgebra,
                     abar: GradedLinearMap) -> tuple[bool, int]:
    """Whether a datum (alpha, rho) inducing abar exists, and the nullity of its system.

    alpha is the library's lift of abar, each member checked by
    `dense_is_derivation`; the unknowns are rho's coordinates over the
    weight-0 2-cochains g^2 -> h.  Both datum conditions are affine-linear
    in rho: ad rho(i, j) equals `dense_commutator_defect` on each canonical
    pair, and delta_alpha rho = 0, summed by `delta_by_terms` over unit
    cochains.  The system is solved by `dense_solve` and its nullity read
    off `dense_rref`, sharing no code with the cohomology layer.
    """
    from superext.cochains import cochain_coordinates, space_basis
    from superext.superlie import lift_alpha_bar

    h, n = ds.algebra, ds.algebra.dim
    alpha = lift_alpha_bar(ds, g, abar)
    if not all(dense_is_derivation(h, op) for op in alpha):
        raise AssertionError("the lift of abar holds an operator that is not a derivation")
    unknowns = space_basis(g.space, h.space, 2, 0)
    rows, rhs = [], []
    for pair in canonical_tuples(g.space, 2):
        defect = dense_commutator_defect(g, alpha, *pair)
        for r, s in product(range(n), repeat=2):  # entry (r, s) of ad rho(pair): rho_m c^r_ms
            rows.append([h.brackets[m][s][r] if tup == pair else Fraction(0)
                         for tup, m in unknowns])
            rhs.append(defect.get(r * n + s, Fraction(0)))
    basis3 = space_basis(g.space, h.space, 3, 0)
    cols = [cochain_coordinates(delta_by_terms(g, alpha, make_cochain(
        g.space, h.space, 2, 0, {tup: unit_vec(n, m)})), basis3) for tup, m in unknowns]
    rows += [[col[r] for col in cols] for r in range(len(basis3))]
    rhs += [Fraction(0)] * len(basis3)
    exists = dense_solve(rows, rhs, len(unknowns)) is not None
    return exists, len(unknowns) - len(dense_rref(rows)[1])


def dense_curvature_failures(d: ExtensionDatum) -> list[str]:
    """The cyclic-curvature lines of `check_datum`, every term a dense vector
    from `Cochain.evaluate` on each ordered triple."""
    g = d.g
    n = g.dim
    fails = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = zero_vec(d.h.dim)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    sgn = Fraction(-1 if (g.space.parities[a] * g.space.parities[c]) % 2 else 1)
                    term = dense_mat_vec(d.alpha[a].matrix, d.rho.evaluate((b, c)))
                    for m, cm in enumerate(g.brackets[a][b]):
                        if cm != 0:
                            term = vec_add(term, vec_scale(-cm, d.rho.evaluate((m, c))))
                    res = vec_add(res, vec_scale(sgn, term))
                if any(x != 0 for x in res):
                    fails.append(
                        f"cyclic curvature residual on ({g.space.names[i]},"
                        f"{g.space.names[j]},{g.space.names[k]}) = {res}"
                    )
    return fails


# ---------- modules from closed forms, as (space, one operator per basis element of g) ----------

def _module(parities, degrees, matrices):
    space = SuperVectorSpace(tuple(f"m{k}" for k in range(len(parities))), tuple(parities))
    return space, tuple(linear_map(space, space, d, m) for d, m in zip(degrees, matrices))


def sl2_irrep(n: int):
    """sl(2)'s V_n on the weight basis v_0..v_n, acted on by H, E, F (`catalog.sl2`'s order):
    H v_k = (n - 2k) v_k, F v_k = v_{k+1}, E v_k = k (n - k + 1) v_{k-1}."""
    def matrix(entry):  # entry(i, k): the v_i coefficient of X v_k
        return [[Fraction(entry(i, k)) for k in range(n + 1)] for i in range(n + 1)]

    return _module((0,) * (n + 1), (0, 0, 0), (
        matrix(lambda i, k: (n - 2 * k) * (i == k)),
        matrix(lambda i, k: k * (n - k + 1) * (i == k - 1)),
        matrix(lambda i, k: i == k + 1)))


def osp12_standard():
    """osp(1|2) on (e0 | e1, e2), acted on by H, E, F, Q+, Q- (`catalog.osp12`'s order):
    H = diag(0, 1, -1), E = E_12, F = E_21, Q+ = E_02 + E_10, Q- = E_01 - E_20."""
    def unit(*entries):  # sum of c E_ij
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for i, j, c in entries:
            m[i][j] = Fraction(c)
        return m

    return _module((0, 1, 1), (0, 0, 0, 1, 1), (
        unit((1, 1, 1), (2, 2, -1)), unit((1, 2, 1)), unit((2, 1, 1)),
        unit((0, 2, 1), (1, 0, 1)), unit((0, 1, 1), (2, 0, -1))))


def trivial_lines(g: SuperLieAlgebra, k: int):
    """C^k, k even lines on which g acts by 0."""
    zero = [[Fraction(0)] * k for _ in range(k)]
    return _module((0,) * k, g.space.parities, [zero] * g.dim)


def module_sum(*parts):
    """The direct sum of modules over one g: block-diagonal operators."""
    parities = [p for space, _ in parts for p in space.parities]
    n, blocks = len(parities), []
    for gen in zip(*(action for _, action in parts)):
        m, at = [[Fraction(0)] * n for _ in range(n)], 0
        for op in gen:
            for i, row in enumerate(op.matrix):
                m[at + i][at:at + len(row)] = row
            at += op.domain.dim
        blocks.append(m)
    return _module(parities, [op.degree for op in parts[0][1]], blocks)


def rebased(part, i: int, j: int):
    """The same module on the basis v_i + v_j and the other v_k (v_i, v_j of one parity):
    each operator A becomes P^-1 A P with P = 1 + E_ji."""
    space, action = part
    n = space.dim
    P = [[Fraction((r == c) + (r == j and c == i)) for c in range(n)] for r in range(n)]
    P_inv = [[Fraction((r == c) - (r == j and c == i)) for c in range(n)] for r in range(n)]
    return _module(space.parities, [op.degree for op in action],
                   [dense_mat_mul(dense_mat_mul(P_inv, op.matrix), P) for op in action])


def outer_tensor(part1, part2):
    """M1 (x) M2 over g1 (+) g2, both modules even: g1 acts by A (x) 1, g2 by 1 (x) B;
    basis m_a (x) m_b at position a dim M2 + b."""
    (s1, act1), (s2, act2) = part1, part2
    if any(s1.parities + s2.parities):
        raise ValueError("outer_tensor takes even modules only")
    n1, n2 = s1.dim, s2.dim

    def matrix(entry):  # entry(a, b, a2, b2): the m_a (x) m_b coefficient of X (m_a2 (x) m_b2)
        return [[entry(r // n2, r % n2, c // n2, c % n2) for c in range(n1 * n2)]
                for r in range(n1 * n2)]

    ops = [matrix(lambda a, b, a2, b2, A=op.matrix: A[a][a2] * (b == b2)) for op in act1]
    ops += [matrix(lambda a, b, a2, b2, B=op.matrix: B[b][b2] * (a == a2)) for op in act2]
    return _module((0,) * (n1 * n2), [op.degree for op in act1 + act2], ops)


def graded_commutator(a: GradedLinearMap, b: GradedLinearMap) -> GradedLinearMap:
    """[a, b] on a common space, as a map: a view of the library's sparse `_commutator`."""
    if not a.domain == a.codomain == b.domain == b.codomain:
        raise ValueError("a graded commutator needs two maps of one space")
    return _flat_map(a.domain, (a.degree + b.degree) % 2, _commutator(a, b))


def derivation_algebra(ds: DerivationSpace) -> SuperLieAlgebra:
    """der(h) as a super Lie algebra under the graded commutator."""
    return bracket_algebra(ds.space, lambda i, j: ds.bracket(ds.basis[i], ds.basis[j]))


def delta_matrix(mod, arity: int, weight: int):
    """Sparse rows of a module's differential L^{arity,weight} -> L^{arity+1,weight}.

    A view of `differential_matrix` for the module's action, each row
    divided by the scale: ({column: nonzero Fraction}, ...), src, dst.
    """
    rows, src, dst, scale = differential_matrix(mod.g, mod.action, mod.space, arity, weight)
    return tuple({k: Fraction(x, scale) for k, x in row.items()} for row in rows), src, dst
