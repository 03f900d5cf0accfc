"""Seeded inputs for the in-process workloads and the values each op must give.

Every algebra an op sees is a fresh signed relabelling of a base algebra
(a parity-preserving permutation of the basis with +-1 signs) with its own
basis names, so no two ops share an input, `superlie.derivations`' cache
never hits across ops, and every dimension checked below is the same for
every seed.
"""

from __future__ import annotations

from math import comb

from superext.catalog import abelian, gl11, heis3, sl2
from superext.cohomology import GModule, trivial_module
from superext.gvs import SuperVectorSpace, unit_vec
from superext.superlie import SuperLieAlgebra, ad, algebra_from_table, direct_sum, make_algebra


def osp12() -> SuperLieAlgebra:
    """osp(1|2) on H, E, F | Q+, Q-; only these signs pass `validate_algebra`."""
    return algebra_from_table(
        ("H", "E", "F", "Q+", "Q-"), (0, 0, 0, 1, 1),
        {
            ("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1},
            ("Q+", "Q+"): {"E": 2}, ("Q-", "Q-"): {"F": -2}, ("Q+", "Q-"): {"H": 1},
            ("H", "Q+"): {"Q+": 1}, ("H", "Q-"): {"Q-": -1},
            ("E", "Q-"): {"Q+": -1}, ("F", "Q+"): {"Q-": -1},
        },
    )


def dsum(*parts: SuperLieAlgebra) -> SuperLieAlgebra:
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


BASES = {
    "osp12": osp12,
    "gl11": gl11,
    "sl2": sl2,
    "heis3": heis3,
    "gl11+sl2+heis3": lambda: dsum(gl11(), sl2(), heis3()),
    "sl2+heis3": lambda: dsum(sl2(), heis3()),
    "sl2+sl2": lambda: dsum(sl2(), sl2()),
}


def relabel(alg: SuperLieAlgebra, rng, tag: int) -> SuperLieAlgebra:
    """The algebra in the basis f_k = s_k e_{perm(k)}, perm parity-preserving.

    Small algebras have few distinct relabellings, so `tag` is appended to
    every basis name: algebras with different tags never compare equal.
    """
    n, par = alg.dim, alg.space.parities
    perm = list(range(n))
    for p in (0, 1):
        slots = [i for i in range(n) if par[i] == p]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for a, b in zip(slots, shuffled):
            perm[a] = b
    inv = [0] * n
    for k in range(n):
        inv[perm[k]] = k
    signs = [rng.choice((1, -1)) for _ in range(n)]
    table = {}
    for a in range(n):
        for b in range(n):
            v = alg.brackets[perm[a]][perm[b]]
            w = [0] * n
            for m, c in enumerate(v):
                if c:
                    w[inv[m]] = signs[a] * signs[b] * signs[inv[m]] * c
            if any(w):
                table[(a, b)] = w
    space = SuperVectorSpace(tuple(f"{alg.space.names[perm[k]]}#{tag}" for k in range(n)), par)
    return make_algebra(space, table)


def adjoint_module(g: SuperLieAlgebra) -> GModule:
    """The adjoint module; a module because g passed `validate_algebra` (Jacobi)."""
    return GModule(g, g.space, tuple(ad(g, unit_vec(g.dim, i)) for i in range(g.dim)))


MODULES = {"trivial": trivial_module, "adjoint": adjoint_module}


def cochain_dim(p: int, q: int, n: int, module_parities, weight: int) -> int:
    """dim C^{n,weight}(g; M) for g of dimension (p|q), independent of `cochains`.

    A canonical tuple with j odd arguments has C(p, n-j) * C(q+j-1, j)
    choices and takes values in the parity (weight + j) part of M.
    """
    m = (module_parities.count(0), module_parities.count(1))
    return sum(comb(p, n - j) * multisets(q, j) * m[(weight + j) % 2] for j in range(n + 1))


def multisets(q: int, j: int) -> int:
    return 1 if j == 0 else comb(q + j - 1, j)


def cochain_dim_total(g: SuperLieAlgebra, module_space: SuperVectorSpace, n: int) -> int:
    """dim C^n over both weights: dim M * sum_k C(p,k) C(q+n-k-1, n-k)."""
    return sum(cochain_dim(g.space.dim_even, g.space.dim_odd, n, module_space.parities, y)
               for y in (0, 1))


# --- cohomology_ladder -----------------------------------------------------

# (base, module, degrees) in pass order; rungs of a series are consecutive.
LADDER_SERIES = (
    ("osp12", "trivial", (1, 2, 3, 4, 5)),
    ("osp12", "adjoint", (1, 2, 3)),
    ("gl11", "adjoint", (1, 2, 3, 4)),
    ("gl11+sl2+heis3", "trivial", (2, 3)),
)

# (dim H^{n,0}, dim H^{n,1}) per rung, recorded with the dense assembler.
LADDER_EXPECTED = {
    ("osp12", "trivial", 1): (0, 0),
    ("osp12", "trivial", 2): (0, 0),
    ("osp12", "trivial", 3): (1, 0),
    ("osp12", "trivial", 4): (0, 0),
    ("osp12", "trivial", 5): (0, 0),
    ("osp12", "adjoint", 1): (0, 0),
    ("osp12", "adjoint", 2): (0, 0),
    ("osp12", "adjoint", 3): (0, 0),
    ("gl11", "adjoint", 1): (2, 0),
    ("gl11", "adjoint", 2): (1, 0),
    ("gl11", "adjoint", 3): (0, 0),
    ("gl11", "adjoint", 4): (0, 0),
    ("gl11+sl2+heis3", "trivial", 2): (4, 0),
    ("gl11+sl2+heis3", "trivial", 3): (4, 0),
}

# H^n(osp(1|2); C) = H^n(sp(2); C): one class in degree 3 (Fuks, 1986).
FUKS_OSP12_TRIVIAL = {1: 0, 2: 0, 3: 1, 4: 0, 5: 0}


def ladder_rungs():
    return [(base, module, n) for base, module, degrees in LADDER_SERIES for n in degrees]


# --- extension_pipeline ----------------------------------------------------

# (kind, kernel h); g = A(1|1) except for "classify-out", where g = out(h)
# and the outer action is the identity.
PIPELINE_CASES = (
    ("classify-zero", "heis3"),
    ("classify-zero", "gl11"),
    ("classify-zero", "sl2+heis3"),
    ("classify-out", "heis3"),
    ("classify-out", "gl11"),
    ("classify-out", "osp12"),
    ("pullback", "sl2"),
    ("pullback", "osp12"),
    ("pullback", "sl2+sl2"),
)

# (obstruction vanishes, dim H^{2,0}(g; Z(h))) per classify case.
PIPELINE_EXPECTED = {
    ("classify-zero", "heis3"): (True, 1),
    ("classify-zero", "gl11"): (True, 1),
    ("classify-zero", "sl2+heis3"): (True, 1),
    ("classify-out", "heis3"): (True, 0),
    ("classify-out", "gl11"): (True, 1),
    ("classify-out", "osp12"): (True, 0),
}


def quotient_algebra() -> SuperLieAlgebra:
    return abelian(1, 1)
